(** Phased overload scaling (Appendix C).

    Each tenant's LB instance is deployed on a small random subset of
    the fleet's VMs (its shuffle shard).  When legitimate load
    overwhelms a shard, Hermes escalates in phases: spread across
    existing groups (scale out), add VMs to existing groups (scale up),
    then provision new groups.  {!Overload} applies the plan. *)

type phase = Spread_existing | Scale_up_groups | New_groups

type decision = { phase : phase; vms_added : int }

val plan_scaling :
  current_vms:int -> utilization:float -> target:float ->
  headroom_vms:int -> decision option
(** [None] when utilization is already at or below target.  Phase 1
    adds no VMs (spread); phase 2 draws on [headroom_vms]; phase 3
    provisions beyond it. *)
