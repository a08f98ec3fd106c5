(** Hermes tunables.

    Defaults follow the paper: a θ/Avg ratio of 0.5 (Fig. 15's sweet
    spot), and a kernel-side fallback to plain reuseport when fewer
    than two workers pass the coarse filter (Algo 2's [n > 1] test).
    The 5 ms [epoll_wait] timeout that makes every worker run the
    scheduler at least every 5 ms (§5.3.2) is a worker setting
    ([Lb.Worker.default_config]), shared by every mode. *)

(** The one source of truth for the simulator's dispatch-mode names:
    command-line parsing ([hermes_sim]), bench matrices and experiment
    tables all go through {!Mode} so a new mode registers once.
    {!Lb.Device.of_mode} maps a mode to its device configuration. *)
module Mode : sig
  type t =
    | Hermes  (** the paper's userspace-directed notification cascade *)
    | Exclusive
    | Reuseport
    | Epoll_rr
    | Wake_all
    | Io_uring_fifo
    | Splice
        (** in-kernel L7 splicing: established connections are handed
            off to a sockmap redirect program; userspace keeps the
            control plane *)

  val all : t list
  (** Every mode, in canonical display order. *)

  val to_string : t -> string

  val of_string : string -> t option
  (** Inverse of {!to_string} ([None] on an unknown name). *)

  val names : string list
  (** [List.map to_string all]. *)
end

type filter = Trace.stage = By_time | By_conn | By_event
(** An Algo 1 filter stage; traces name the stage the scheduler ran. *)

type t = {
  avail_threshold : Engine.Sim_time.t;
      (** a worker whose event-loop-entry timestamp is older than this
          is considered hung (FilterTime's [Threshold]) *)
  theta_ratio : float;
      (** θ expressed as a fraction of the average (Fig. 15's x-axis);
          FilterCount keeps workers with [value < avg + θ] *)
  min_selected : int;
      (** kernel falls back to hash selection when fewer workers pass
          the coarse filter *)
  filter_order : filter list;
      (** cascade order; the paper's choice is time, then connection
          count, then pending events (§5.2.2) — permutations are an
          ablation *)
  schedule_at_loop_end : bool;
      (** true (paper): run the scheduler after the batch; false is the
          stale-status ablation of §5.3.2 *)
  kernel_jit : bool;
      (** compile the dispatch program to register bytecode
          ({!Kernel.Ebpf_vm}), verify it ({!Kernel.Verifier}) and run
          it closure-compiled ({!Kernel.Ebpf_jit}) instead of as the
          compiled expression program — same decisions, zero
          per-packet allocation either way *)
}

val default : t
