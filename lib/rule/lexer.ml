type token =
  | IDENT of string
  | NUMBER of Value.t
  | STRING of string
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | COMMA
  | COLON
  | QUESTION
  | ARROW
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PIPE
  | OROR
  | ANDAND
  | BANG
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | EOF

exception Lex_error of { pos : int; line : int; message : string }

let error pos line fmt =
  Printf.ksprintf (fun message -> raise (Lex_error { pos; line; message })) fmt

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let tokenize_located src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 in
  let emit t = tokens := (t, !line) :: !tokens in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then begin
      if c = '\n' then incr line;
      incr i
    end
    else if c = '#' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      emit (IDENT (String.sub src start (!i - start)))
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do incr i done;
      let is_float = ref false in
      if !i < n && src.[!i] = '.' && !i + 1 < n && is_digit src.[!i + 1] then begin
        is_float := true;
        incr i;
        while !i < n && is_digit src.[!i] do incr i done
      end;
      if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
        is_float := true;
        incr i;
        if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
        if !i >= n || not (is_digit src.[!i]) then error !i !line "malformed exponent";
        while !i < n && is_digit src.[!i] do incr i done
      end;
      let text = String.sub src start (!i - start) in
      let value =
        if !is_float then Value.Float (float_of_string text)
        else
          match int_of_string_opt text with
          | Some n -> Value.Int n
          | None -> error start !line "integer literal %s out of range" text
      in
      emit (NUMBER value)
    end
    else if c = '"' then begin
      let buf = Buffer.create 16 in
      let start_line = !line in
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        match src.[!i] with
        | '"' ->
          closed := true;
          incr i
        | '\\' when !i + 1 < n ->
          (match src.[!i + 1] with
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | other -> Buffer.add_char buf other);
          i := !i + 2
        | other ->
          if other = '\n' then incr line;
          Buffer.add_char buf other;
          incr i
      done;
      if not !closed then error !i start_line "unterminated string literal";
      tokens := (STRING (Buffer.contents buf), start_line) :: !tokens
    end
    else begin
      let two = match peek 1 with Some c2 -> Some (c, c2) | None -> None in
      match two with
      | Some ('-', '>') ->
        emit ARROW;
        i := !i + 2
      | Some ('|', '|') ->
        emit OROR;
        i := !i + 2
      | Some ('&', '&') ->
        emit ANDAND;
        i := !i + 2
      | Some ('=', '=') ->
        emit EQ;
        i := !i + 2
      | Some ('!', '=') | Some ('<', '>') ->
        emit NE;
        i := !i + 2
      | Some ('<', '=') ->
        emit LE;
        i := !i + 2
      | Some ('>', '=') ->
        emit GE;
        i := !i + 2
      | _ ->
        (match c with
         | '(' -> emit LPAREN
         | ')' -> emit RPAREN
         | '[' -> emit LBRACKET
         | ']' -> emit RBRACKET
         | ',' -> emit COMMA
         | ':' -> emit COLON
         | '?' -> emit QUESTION
         | '+' -> emit PLUS
         | '-' -> emit MINUS
         | '*' -> emit STAR
         | '/' -> emit SLASH
         | '|' -> emit PIPE
         | '!' -> emit BANG
         | '=' -> emit EQ
         | '<' -> emit LT
         | '>' -> emit GT
         | other -> error !i !line "unexpected character %c" other);
        incr i
    end
  done;
  emit EOF;
  Array.of_list (List.rev !tokens)

let tokenize src = Array.map fst (tokenize_located src)

let token_to_string = function
  | IDENT s -> s
  | NUMBER v -> Value.to_string v
  | STRING s -> Printf.sprintf "%S" s
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | COMMA -> ","
  | COLON -> ":"
  | QUESTION -> "?"
  | ARROW -> "->"
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PIPE -> "|"
  | OROR -> "||"
  | ANDAND -> "&&"
  | BANG -> "!"
  | EQ -> "=="
  | NE -> "!="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | EOF -> "<eof>"
