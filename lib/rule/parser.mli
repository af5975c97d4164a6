(** Recursive-descent parser for the textual rule language.

    Concrete syntax, mirroring the paper's notation:

    {v
    # interfaces (§3.1.1)
    write_if:  WR(X, b) ->[5] W(X, b)
    no_spont:  Ws(X, b) -> FALSE
    notify:    Ws(X, b) ->[2] N(X, b)
    cond_ntf:  Ws(X, a, b) && |b - a| > 0.1 * a ->[2] N(X, b)
    per_ntf:   P(300) && X == b ->[1] N(X, b)
    read_if:   RR(X) && X == b ->[1] R(X, b)
    param:     Ws(Phone(n), b) ->[2] N(Phone(n), b)

    # strategies (§3.2)
    prop:      N(Salary1(n), b) ->[5] WR(Salary2(n), b)
    cached:    N(X, b) ->[5] (Cx != b) ? WR(Y, b), W(Cx, b)
    poll:      P(60) ->[1] RR(X)
    fwd:       R(X, b) ->[1] WR(Y, b)
    v}

    Rules are self-delimiting; an optional [label:] prefix names a rule.
    [->[d]] gives the time bound δ in seconds; a bare [->] means no bound
    (δ = ∞).  Right-hand-side step guards must be parenthesized:
    [(cond) ? Template].  Identifiers beginning with an upper-case letter
    are data items; [true], [false] and [null] are constants; [E(Item)]
    is the existence predicate.  [#] comments run to end of line. *)

exception Parse_error of { pos : int; line : int; message : string }
(** [pos] is a token index into the token stream (0-based); [line] is the
    1-based source line of the offending token. *)

val parse_rules : string -> Rule.t list
(** Parse a whole rule file.  @raise Parse_error *)

val parse_program : string -> (Rule.t * int) list * (int * string) option
(** Best-effort variant for diagnostics: the rules successfully parsed
    before the first syntax error, plus that error's (line, message) if
    one occurred.  Never raises. *)

val parse_rule : string -> Rule.t
(** Parse exactly one rule.  @raise Parse_error if input remains. *)

val parse_expr : string -> Expr.t
(** Parse a condition/expression. *)

val parse_template : string -> Template.t
