(** Tenant forwarding rules.

    Each tenant configures rules that route requests — by host header
    and path prefix/exact match — to named backend server groups (the
    "HTTP-based routing based on user policies" of §2.1).  Rule counts
    per port vary wildly across tenants (Fig. A5), which is why the
    paper finds no code locality to exploit.  Matching is first-match
    in priority order: exact path beats prefix, longer prefix beats
    shorter, host-specific beats wildcard. *)

type matcher = {
  host : string option;  (** [None] matches any host *)
  path : [ `Exact of string | `Prefix of string | `Any ];
}

type rule = { matcher : matcher; backend_group : string }

type t

val create : rule list -> t
(** Rules are ordered by specificity at construction. *)

val rule_count : t -> int

val route_request : t -> Http.request -> string option
(** Backend group for a request, by its host and path; [None] when no
    rule matches (the LB answers 404). *)

val matching_cost : t -> Engine.Sim_time.t
(** Virtual CPU cost of evaluating this rule table once — grows with
    the rule count, feeding the Regex_route cost class. *)
