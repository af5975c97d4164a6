(** Trace persistence: a line-oriented text format for executions.

    Traces can be dumped during a run and re-checked offline (guarantee
    checker, Appendix-A validity checker) — `cmtool check-trace` does
    exactly that.  One event per line:

    {v
    <id> <time> <site> <kind> <descriptor>
    v}

    where [kind] is [spont] or [gen:<rule-id>:<trigger-id>], and the
    descriptor uses the rule language's concrete syntax, e.g.
    [W(Salary2("e1"), 1500)].  Lines starting with [#] are comments. *)

val write_file : string -> Trace.t -> unit

val read_string : string -> (Trace.t, string) result
(** Errors carry the 1-based line number. *)

val read_file : string -> (Trace.t, string) result

val event_to_line : Event.t -> string
