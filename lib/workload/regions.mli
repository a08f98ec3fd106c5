(** Region traffic profiles (Table 1 / Table 4).

    Each of the paper's four anonymized regions is modelled by request
    size and processing-time distributions fitted to Table 1's P50/P99
    quantiles (lognormal bodies; Region 2 and 3 add an explicit
    WebSocket component whose connection-as-one-request accounting
    produces their extreme P99s), plus the Table 4 mixture weights over
    the four traffic cases. *)

type t = {
  name : string;
  request_size : Engine.Dist.t;  (** bytes *)
  processing_time : Engine.Dist.t;  (** seconds *)
  case_weights : float array;  (** Table 4 row: weight of Case1..4 *)
}

val all : t array
(** Regions 1 to 4, in order. *)

val sample_case : t -> Engine.Rng.t -> Cases.case
(** Draw a case according to the region's Table 4 mixture. *)
