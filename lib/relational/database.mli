(** In-memory relational engine — the "Sybase-class" Raw Information
    Source of the paper's running example (§4.2).

    Capabilities the CM-Translator builds on:

    - SQL text execution with [$x] parameters, so CM-RID command
      templates apply directly;
    - row-level CHECK constraints, rejected writes leaving the table
      unchanged — the {e local constraint manager} that the Demarcation
      Protocol delegates to (§6.1);
    - after-change observers (triggers), the basis of notify interfaces
      (§4.2.1: "declaring a database trigger on the data items").

    Execution is synchronous and deterministic; latency is modelled by
    the translator, not here.  SELECT without ORDER BY returns rows in
    insertion order.

    {b Primary keys.}  At most one column is [PRIMARY KEY]; it implies
    [NOT NULL] ([Not_null_violated] names the column).  Keys are unique
    under [Cm_rule.Value.equal], so a [REAL] key holds [1] or [1.0], not
    both, and [0.0]/[-0.0] or two NaNs collide ([Duplicate_key]).
    Uniqueness is checked after the whole statement: an UPDATE is
    rejected, with the table untouched, when two of its rows end on one
    key or one lands on a key another row keeps, so [SET k = k + 1] over
    every row is legal.

    {b Access path.}  When the leftmost top-level [AND] conjunct of a
    WHERE is [pk = e] or [e = pk] and [e] names no column, [e] is
    evaluated once and the statement (UPDATE, DELETE, SELECT, aggregates)
    sees at most the one row holding that key, if it passes the whole
    WHERE.  Every other WHERE scans the table in rowid order.  Both paths
    select the same rows and raise the same errors; the probe replaces
    the scan and its sort with one hash lookup.

    {b Errors and empty tables.}  Before any row is read, every
    [$param] in the WHERE and the SET list must be bound
    ([Unbound_param]), and the key side [e] of a leading [col = e]
    conjunct is evaluated (on any table, so a type error in it is
    reported even when the table is empty).  Errors that need a row
    value (a CHECK, a type error against a column) can still only arise
    from the rows the statement touches. *)

type t

type error =
  | Parse_failed of string
  | Unknown_table of string
  | Unknown_column of { table : string; column : string }
  | Type_mismatch of string
  | Check_failed of string  (** the violated CHECK's text; table unchanged *)
  | Not_null_violated of string
  | Duplicate_key of string
  | Unbound_param of string
  | Table_exists of string

type result =
  | Rows of { columns : string list; rows : Cm_rule.Value.t list list }
  | Affected of int
  | Done  (** DDL *)

type change =
  | Inserted of { table : string; row : Row.t }
  | Updated of { table : string; old_row : Row.t; new_row : Row.t }
  | Deleted of { table : string; row : Row.t }

val create : unit -> t

val exec :
  t ->
  ?params:(string * Cm_rule.Value.t) list ->
  string ->
  (result, error) Stdlib.result
(** Parse and execute one statement.  The database keeps the statements
    of the last texts it parsed (at most 64; the table empties when
    full), so a text run again is not parsed again.  A text that fails
    to parse is never kept and gives the same error on every call. *)

val exec_stmt :
  t ->
  ?params:(string * Cm_rule.Value.t) list ->
  Sql_ast.stmt ->
  (result, error) Stdlib.result
(** Execute a pre-parsed statement (used on hot paths). *)

val on_change : t -> (change -> unit) -> unit
(** Register an after-change observer, called synchronously after each
    successful insert/update/delete, once per affected row.  Several
    observers run in registration order.  An UPDATE notifies after all
    of its rows are written. *)

val table_names : t -> string list
val columns_of : t -> string -> string list option
val row_count : t -> string -> int option

val error_to_string : error -> string
