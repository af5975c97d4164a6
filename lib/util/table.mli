(** Plain-text table rendering for experiment output.

    The benchmark harness prints every reproduced experiment as one of
    these tables, so the format is deliberately stable: a header row, a
    rule, then data rows, columns padded to the widest cell. *)

type t

val create : title:string -> columns:string list -> t

val add_row : t -> string list -> unit
(** Rows shorter than the header are padded with empty cells; longer rows
    are truncated. *)

val render : t -> string
(** Full rendering including the title line. *)

val print : t -> unit
(** [render] to stdout followed by a blank line. *)

val cell_f : ?digits:int -> float -> string
(** Float cell with fixed [digits] (default 2). *)

val cell_pct : float -> string
(** Ratio in [\[0,1\]] rendered as a percentage with one decimal. *)

val cell_bool : bool -> string
(** ["yes"] / ["no"] — used by guarantee-validity matrices. *)
