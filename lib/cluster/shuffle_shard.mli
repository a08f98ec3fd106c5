(** Shuffle sharding and phased overload scaling (Appendix C).

    Each tenant's LB instance is deployed on a small random subset of
    the fleet's VMs (its shard), so one tenant's overload or attack
    touches only its shard, and two tenants rarely share a whole
    shard.  When legitimate load overwhelms a shard, Hermes escalates
    in phases: spread across existing groups (scale out), add VMs to
    existing groups (scale up), then provision new groups. *)

type t

val create : vms:int -> shard_size:int -> rng:Engine.Rng.t -> t
(** @raise Invalid_argument unless [0 < shard_size <= vms]. *)

val shard_size : t -> int

val shard_of : t -> tenant:int -> int array
(** Deterministic shard for a tenant (memoized random draw). *)

val overlap : t -> int -> int -> int
(** VMs shared by two tenants' shards. *)

val blast_radius : t -> tenant:int -> float
(** Fraction of the fleet this tenant can affect. *)

val expected_full_overlap_fraction : vms:int -> shard_size:int -> trials:int ->
  rng:Engine.Rng.t -> float
(** Monte-Carlo estimate of the probability two random shards are
    identical — the headline argument for shuffle sharding. *)

(** {1 Phased scaling} *)

type phase = Spread_existing | Scale_up_groups | New_groups

type decision = { phase : phase; vms_added : int }

val plan_scaling :
  current_vms:int -> utilization:float -> target:float ->
  headroom_vms:int -> decision option
(** [None] when utilization is already at or below target.  Phase 1
    adds no VMs (spread); phase 2 draws on [headroom_vms]; phase 3
    provisions beyond it. *)
