exception Parse_error of { pos : int; line : int; message : string }

type stream = { tokens : Lexer.token array; lines : int array; mutable pos : int }

let line_at st =
  if Array.length st.lines = 0 then 1
  else st.lines.(min st.pos (Array.length st.lines - 1))

let error st fmt =
  Printf.ksprintf
    (fun message -> raise (Parse_error { pos = st.pos; line = line_at st; message }))
    fmt

let peek st = st.tokens.(st.pos)

let peek2 st =
  if st.pos + 1 < Array.length st.tokens then st.tokens.(st.pos + 1) else Lexer.EOF

let advance st = st.pos <- st.pos + 1

let expect st token what =
  if peek st = token then advance st
  else error st "expected %s, found %s" what (Lexer.token_to_string (peek st))

let is_upper_ident s = String.length s > 0 && s.[0] >= 'A' && s.[0] <= 'Z'

(* ---- expressions ---------------------------------------------------- *)

let rec parse_or st =
  let left = parse_and st in
  if peek st = Lexer.OROR then begin
    advance st;
    Expr.Binop (Expr.Or, left, parse_or st)
  end
  else left

and parse_and st =
  let left = parse_cmp st in
  if peek st = Lexer.ANDAND then begin
    advance st;
    Expr.Binop (Expr.And, left, parse_and st)
  end
  else left

and parse_cmp st =
  let left = parse_add st in
  let op =
    match peek st with
    | Lexer.EQ -> Some Expr.Eq
    | Lexer.NE -> Some Expr.Ne
    | Lexer.LT -> Some Expr.Lt
    | Lexer.LE -> Some Expr.Le
    | Lexer.GT -> Some Expr.Gt
    | Lexer.GE -> Some Expr.Ge
    | _ -> None
  in
  match op with
  | None -> left
  | Some op ->
    advance st;
    Expr.Binop (op, left, parse_add st)

and parse_add st =
  let rec loop left =
    match peek st with
    | Lexer.PLUS ->
      advance st;
      loop (Expr.Binop (Expr.Add, left, parse_mul st))
    | Lexer.MINUS ->
      advance st;
      loop (Expr.Binop (Expr.Sub, left, parse_mul st))
    | _ -> left
  in
  loop (parse_mul st)

and parse_mul st =
  let rec loop left =
    match peek st with
    | Lexer.STAR ->
      advance st;
      loop (Expr.Binop (Expr.Mul, left, parse_unary st))
    | Lexer.SLASH ->
      advance st;
      loop (Expr.Binop (Expr.Div, left, parse_unary st))
    | _ -> left
  in
  loop (parse_unary st)

and parse_unary st =
  match peek st with
  | Lexer.MINUS ->
    advance st;
    Expr.Unop (Expr.Neg, parse_unary st)
  | Lexer.BANG ->
    advance st;
    Expr.Unop (Expr.Not, parse_unary st)
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | Lexer.NUMBER v ->
    advance st;
    Expr.Const v
  | Lexer.STRING s ->
    advance st;
    Expr.Const (Value.Str s)
  | Lexer.PIPE ->
    advance st;
    let inner = parse_or st in
    expect st Lexer.PIPE "closing |";
    Expr.Unop (Expr.Abs, inner)
  | Lexer.LPAREN ->
    advance st;
    let inner = parse_or st in
    expect st Lexer.RPAREN ")";
    inner
  | Lexer.IDENT "true" ->
    advance st;
    Expr.Const (Value.Bool true)
  | Lexer.IDENT "false" ->
    advance st;
    Expr.Const (Value.Bool false)
  | Lexer.IDENT "null" ->
    advance st;
    Expr.Const Value.Null
  | Lexer.IDENT "E" when peek2 st = Lexer.LPAREN ->
    advance st;
    advance st;
    let arg = parse_or st in
    expect st Lexer.RPAREN ")";
    (match arg with
     | Expr.Item (base, args) -> Expr.Exists (base, args)
     | other ->
       error st "E(...) expects a data item, found %s" (Expr.to_string other))
  | Lexer.IDENT name ->
    advance st;
    if peek st = Lexer.LPAREN && is_upper_ident name then begin
      advance st;
      let args = parse_expr_list st in
      expect st Lexer.RPAREN ")";
      Expr.Item (name, args)
    end
    else if is_upper_ident name then Expr.Item (name, [])
    else Expr.Var name
  | other -> error st "expected an expression, found %s" (Lexer.token_to_string other)

and parse_expr_list st =
  if peek st = Lexer.RPAREN then []
  else begin
    let first = parse_or st in
    let rec more acc =
      if peek st = Lexer.COMMA then begin
        advance st;
        more (parse_or st :: acc)
      end
      else List.rev acc
    in
    more [ first ]
  end

(* ---- templates ------------------------------------------------------ *)

let rec parse_template_arg st =
  match peek st with
  | Lexer.STAR ->
    advance st;
    Expr.Wildcard
  | Lexer.MINUS ->
    advance st;
    (match peek st with
     | Lexer.NUMBER v ->
       advance st;
       Expr.Const (Value.neg v)
     | other ->
       error st "expected a number after -, found %s" (Lexer.token_to_string other))
  | Lexer.NUMBER v ->
    advance st;
    Expr.Const v
  | Lexer.STRING s ->
    advance st;
    Expr.Const (Value.Str s)
  | Lexer.IDENT "true" ->
    advance st;
    Expr.Const (Value.Bool true)
  | Lexer.IDENT "false" ->
    advance st;
    Expr.Const (Value.Bool false)
  | Lexer.IDENT "null" ->
    advance st;
    Expr.Const Value.Null
  | Lexer.IDENT name ->
    advance st;
    if is_upper_ident name then begin
      if peek st = Lexer.LPAREN then begin
        advance st;
        let args = parse_template_args st in
        expect st Lexer.RPAREN ")";
        Expr.Item (name, args)
      end
      else Expr.Item (name, [])
    end
    else Expr.Var name
  | other ->
    error st "expected a template argument, found %s" (Lexer.token_to_string other)

and parse_template_args st =
  if peek st = Lexer.RPAREN then []
  else begin
    let first = parse_template_arg st in
    let rec more acc =
      if peek st = Lexer.COMMA then begin
        advance st;
        more (parse_template_arg st :: acc)
      end
      else List.rev acc
    in
    more [ first ]
  end

let parse_template_body st =
  match peek st with
  | Lexer.IDENT "FALSE" ->
    advance st;
    Template.false_
  | Lexer.IDENT name ->
    advance st;
    expect st Lexer.LPAREN "(";
    let args = parse_template_args st in
    expect st Lexer.RPAREN ")";
    (try Template.make name args
     with Invalid_argument message -> error st "%s" message)
  | other -> error st "expected an event template, found %s" (Lexer.token_to_string other)

(* ---- rules ----------------------------------------------------------- *)

let parse_delta st =
  if peek st = Lexer.LBRACKET then begin
    advance st;
    let v =
      match peek st with
      | Lexer.NUMBER v ->
        advance st;
        Value.to_float v
      | other -> error st "expected a time bound, found %s" (Lexer.token_to_string other)
    in
    expect st Lexer.RBRACKET "]";
    v
  end
  else infinity

let parse_step st =
  if peek st = Lexer.LPAREN then begin
    (* Parenthesized guard followed by '?'. *)
    advance st;
    let guard = parse_or st in
    expect st Lexer.RPAREN ")";
    expect st Lexer.QUESTION "?";
    { Rule.guard; template = parse_template_body st }
  end
  else { Rule.guard = Expr.Const (Value.Bool true); template = parse_template_body st }

let parse_one_rule st =
  (* Labels may contain '/' segments (generated interface ids look like
     "site/Base/kind"), so scan ahead: IDENT (/ IDENT)* ':' is a label. *)
  let label =
    let rec scan pos acc =
      if pos + 1 >= Array.length st.tokens then None
      else
        match st.tokens.(pos) with
        | Lexer.IDENT name -> (
          match st.tokens.(pos + 1) with
          | Lexer.COLON -> Some (pos + 2, acc ^ name)
          | Lexer.SLASH -> scan (pos + 2) (acc ^ name ^ "/")
          | _ -> None)
        | _ -> None
    in
    match peek st with
    | Lexer.IDENT _ -> (
      match scan st.pos "" with
      | Some (next, label) ->
        st.pos <- next;
        Some label
      | None -> None)
    | _ -> None
  in
  let lhs = parse_template_body st in
  let lhs_cond =
    if peek st = Lexer.ANDAND then begin
      advance st;
      parse_or st
    end
    else Expr.Const (Value.Bool true)
  in
  expect st Lexer.ARROW "->";
  let delta = parse_delta st in
  let rhs =
    if peek st = Lexer.IDENT "FALSE" then begin
      advance st;
      Rule.False
    end
    else begin
      let first = parse_step st in
      let rec more acc =
        if peek st = Lexer.COMMA then begin
          advance st;
          more (parse_step st :: acc)
        end
        else List.rev acc
      in
      Rule.Steps (more [ first ])
    end
  in
  try Rule.make ?id:label ~lhs_cond ~delta ~lhs rhs
  with Invalid_argument message -> error st "%s" message

let with_stream src f =
  let located =
    try Lexer.tokenize_located src
    with Lexer.Lex_error { pos; line; message } ->
      raise (Parse_error { pos; line; message })
  in
  f { tokens = Array.map fst located; lines = Array.map snd located; pos = 0 }

let parse_rules src =
  with_stream src (fun st ->
      let rec loop acc =
        if peek st = Lexer.EOF then List.rev acc else loop (parse_one_rule st :: acc)
      in
      loop [])

let parse_program src =
  match
    with_stream src (fun st ->
        let rec loop acc =
          if peek st = Lexer.EOF then (List.rev acc, None)
          else
            let line = line_at st in
            match parse_one_rule st with
            | rule -> loop ((rule, line) :: acc)
            | exception Parse_error { line; message; _ } ->
              (List.rev acc, Some (line, message))
        in
        loop [])
  with
  | result -> result
  | exception Parse_error { line; message; _ } -> ([], Some (line, message))

let finish st parsed what =
  if peek st = Lexer.EOF then parsed
  else error st "trailing input after %s: %s" what (Lexer.token_to_string (peek st))

let parse_rule src = with_stream src (fun st -> finish st (parse_one_rule st) "rule")

let parse_expr src = with_stream src (fun st -> finish st (parse_or st) "expression")

let parse_template src =
  with_stream src (fun st -> finish st (parse_template_body st) "template")
