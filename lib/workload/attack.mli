(** Hostile traffic generators (Appendix C, exception case 2).

    L7 LBs sit at the traffic ingress and absorb two attack classes:

    - {b SYN flood}: connection requests at extreme rate that never (or
      barely) carry requests — they burn accept queues, worker accept
      cycles, and connection-pool slots;
    - {b Challenge Collapsar (CC)}: legitimate-looking connections each
      issuing CPU-expensive requests (regex routing, SSL) in a tight
      loop — they exhaust every worker's CPU.

    Both are attributed to a tenant, as the paper's mitigation is
    tenant-granular sandbox migration. *)

type kind =
  | Syn_flood of { cps : float }
  | Cc of { cps : float; request_cost : Engine.Sim_time.t; per_conn : int }

type t

val launch :
  device:Lb.Device.t -> tenant:int -> kind:kind -> rng:Engine.Rng.t -> t
(** Start generating immediately; runs until [stop]. *)

val stop : t -> unit
val conns_attempted : t -> int
val requests_sent : t -> int
