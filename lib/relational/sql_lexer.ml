type token =
  | KW of string
  | IDENT of string
  | NUMBER of Cm_rule.Value.t
  | STRING of string
  | PARAM of string
  | LPAREN
  | RPAREN
  | COMMA
  | STAR
  | PLUS
  | MINUS
  | SLASH
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | EOF

exception Lex_error of string

let keywords =
  [
    "CREATE"; "TABLE"; "PRIMARY"; "KEY"; "NOT"; "NULL"; "CHECK"; "INSERT";
    "INTO"; "VALUES"; "UPDATE"; "SET"; "WHERE"; "DELETE"; "FROM"; "SELECT";
    "ORDER"; "BY"; "ASC"; "DESC"; "AND"; "OR"; "IS"; "TRUE"; "FALSE"; "INT";
    "REAL"; "TEXT"; "BOOL"; "DROP"; "GROUP"; "COUNT"; "SUM"; "MIN"; "MAX"; "AVG";
  ]

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let out = ref [] in
  let emit t = out := t :: !out in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '-' && !i + 1 < n && src.[!i + 1] = '-' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      let word = String.sub src start (!i - start) in
      let upper = String.uppercase_ascii word in
      if List.mem upper keywords then emit (KW upper) else emit (IDENT word)
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
      let text = String.sub src start (!i - start) in
      emit
        (NUMBER
           (if !is_float then Cm_rule.Value.Float (float_of_string text)
            else
              match int_of_string_opt text with
              | Some n -> Cm_rule.Value.Int n
              | None ->
                raise (Lex_error (Printf.sprintf "integer literal %s out of range" text))))
    end
    else if c = '\'' then begin
      let buf = Buffer.create 16 in
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '\'' then
          if !i + 1 < n && src.[!i + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        else begin
          Buffer.add_char buf src.[!i];
          incr i
        end
      done;
      if not !closed then raise (Lex_error "unterminated string literal");
      emit (STRING (Buffer.contents buf))
    end
    else if c = '$' then begin
      incr i;
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      if !i = start then raise (Lex_error "empty parameter name after $");
      emit (PARAM (String.sub src start (!i - start)))
    end
    else begin
      let two =
        if !i + 1 < n then Some (c, src.[!i + 1]) else None
      in
      match two with
      | Some ('<', '>') ->
        emit NE;
        i := !i + 2
      | Some ('!', '=') ->
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
         | ',' -> emit COMMA
         | '*' -> emit STAR
         | '+' -> emit PLUS
         | '-' -> emit MINUS
         | '/' -> emit SLASH
         | '=' -> emit EQ
         | '<' -> emit LT
         | '>' -> emit GT
         | other -> raise (Lex_error (Printf.sprintf "unexpected character %c" other)));
        incr i
    end
  done;
  emit EOF;
  Array.of_list (List.rev !out)

let token_to_string = function
  | KW k -> k
  | IDENT s -> s
  | NUMBER v -> Cm_rule.Value.to_string v
  | STRING s -> "'" ^ s ^ "'"
  | PARAM p -> "$" ^ p
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | STAR -> "*"
  | PLUS -> "+"
  | MINUS -> "-"
  | SLASH -> "/"
  | EQ -> "="
  | NE -> "<>"
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | EOF -> "<eof>"
