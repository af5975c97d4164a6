(** JSON text for the toolkit's hand-rolled reports. *)

val escape : string -> string
(** The body of a JSON string literal for [s] (without the quotes):
    ["\""] and ["\\"] are backslash-escaped, newline, carriage return and
    tab use their short escapes, every other control character below
    U+0020 becomes [\u00XX], and all other bytes pass through. *)
