(** Model-check harnesses for {!Engine.Task_deque} and the
    {!Engine.Coordinator} pool (plus a replica of the Trace sink
    publication protocol), run by [hermes_sim mcheck].

    Clean scenarios must explore without a counterexample, with no
    races beyond [expected_races], and (for [required_races]) must
    actually observe the documented benign races.  [bug] scenarios
    re-introduce a historical ordering bug behind a seed flag and pass
    only when the checker finds a counterexample — the regression gate
    for the checker itself. *)

type t = {
  name : string;
  descr : string;
  bug : bool;  (** true: the checker must find a counterexample *)
  expected_races : string list;
      (** location-name prefixes of documented benign races *)
  required_races : string list;
      (** prefixes that must be observed for the scenario to pass *)
  config : Model.config;  (** per-scenario exploration budget *)
  run : Model.config -> Model.outcome;
}

val all : t list
val find : string -> t option

val evaluate : t -> Model.outcome -> bool * string
(** [(pass, reason)] under the rules above. *)
