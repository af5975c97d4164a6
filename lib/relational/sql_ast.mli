(** Abstract syntax for the SQL subset understood by the relational RIS.

    The subset is what the paper's CM-Translators need from a "Sybase"
    class source (§4.2.1): single-table DML with WHERE predicates,
    CHECK constraints (used as the local constraint managers the
    Demarcation Protocol relies on, §6.1), and [$x] parameters so CM-RID
    command templates like
    ["UPDATE employees SET salary = $b WHERE empid = $n"]
    can be instantiated per rule firing. *)

type col_type = T_int | T_real | T_text | T_bool

type expr =
  | Lit of Cm_rule.Value.t
  | Col of string
  | Param of string  (** [$x]; bound at execution time *)
  | Unary of unary * expr
  | Binary of binary * expr * expr
  | Is_null of expr * bool  (** [IS NULL] / [IS NOT NULL] (bool = negated) *)

and unary = Neg | Not

and binary = Add | Sub | Mul | Div | Eq | Ne | Lt | Le | Gt | Ge | And | Or

type col_def = {
  col_name : string;
  col_type : col_type;
  primary_key : bool;
  not_null : bool;
}

type order = Asc | Desc

type agg = Count | Sum | Min | Max | Avg

type sel_item =
  | S_col of string
  | S_agg of agg * string option  (** [None] is the star form of COUNT *)

type stmt =
  | Create_table of {
      table : string;
      cols : col_def list;
      checks : expr list;  (** row-level CHECK constraints *)
    }
  | Insert of { table : string; cols : string list option; values : expr list }
  | Update of { table : string; sets : (string * expr) list; where : expr option }
  | Delete of { table : string; where : expr option }
  | Select of {
      table : string;
      projection : sel_item list option;  (** [None] = [*] *)
      where : expr option;
      group_by : string option;
      order_by : (string * order) option;
    }
  | Drop_table of { table : string }

val col_type_to_string : col_type -> string
val sel_item_to_string : sel_item -> string
val expr_to_string : expr -> string
val stmt_to_string : stmt -> string
