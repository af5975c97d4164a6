(** The old-fashioned banking scenario (§6.4): account balances at a
    branch are copied to the head office once a day.

    All update transactions happen between 9 a.m. and 5 p.m. (the
    branch's "no updates outside business hours" interface); at 5 p.m. an
    end-of-day job reads every balance and the strategy rule
    [R(bal1(n), b) →δ WR(bal2(n), b)] propagates it.  The resulting
    {e periodic guarantee}: the copies are equal from 5:15 p.m. until
    8 a.m. the next morning, every day.

    The two accounts tables are one CM-RID description (§4.1) built by
    {!Cm_core.Toolkit.attach}; balance items other than the branch's
    live at the head office. *)

type t = {
  system : Cm_core.System.t;
  shell_branch : Cm_core.Shell.t;
  shell_ho : Cm_core.Shell.t;
  tr_branch : Cm_core.Tr_relational.t;
  tr_ho : Cm_core.Tr_relational.t;
  db_branch : Cm_relational.Database.t;
  db_ho : Cm_relational.Database.t;
  accounts : string list;
  initial : (Cm_rule.Item.t * Cm_rule.Value.t) list;
}

val day : float
(** 86 400 s. *)

val create : ?config:Cm_core.System.Config.t -> ?accounts:int -> unit -> t
(** Installs the end-of-day strategy and schedules the daily sweep. *)

val run_days : t -> days:int -> updates_per_day:int -> unit
(** Schedule [updates_per_day] random balance updates uniformly inside
    business hours of each day, then run the simulation to the end of
    the last night. *)

val guarantee : string -> Cm_core.Guarantee.t
(** The periodic-equality guarantee for one account. *)

val balance_at : t -> [ `Branch | `Head_office ] -> string -> Cm_rule.Value.t
