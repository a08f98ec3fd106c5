(** The compiled form of every eBPF program: the one back end.

    Both program formats compile into this: {!Ebpf.verify_exn} from the
    expression language, {!Ebpf_jit.compile} from verified bytecode.  A
    front end lays out a register file, then builds the program as
    threaded steps — one closure per step, with its operator's body
    inlined, that tail-calls the next — ending in verdicts.  Each
    operator's semantics, cycle charge and fault check live here once.

    The register file is unboxed 64-bit slots in one [Bytes.t], owned
    by the program and reused across runs without re-zeroing, so a run
    allocates nothing.  Slot {!flow_hash} and slot {!dst_port} hold the
    packet's context; a {!const} slot is loaded once and never
    written. *)

type t
(** A compiled program.  It owns its register file, so one [t] runs one
    packet at a time (the simulator runs on one domain). *)

val copy_limit : int
(** Upper bound on a copy length (65536 — one socket buffer). *)

(** {1 Building} *)

type file
(** A program being built: its register file's layout and its
    state. *)

val file : unit -> file

val flow_hash : int
(** The slot holding the packet's flow hash (0). *)

val dst_port : int
(** The slot holding the packet's destination port (1). *)

val reg : file -> int
(** A fresh slot that steps may write. *)

val const : file -> int64 -> int
(** A fresh read-only slot holding the value. *)

type k = unit -> int
(** A step, or a chain of them: runs to the exit code. *)

type op =
  | Mov  (** [dst := a] *)
  | Add
  | Sub
  | Mul
  | And
  | Or
  | Xor
  | Lsh  (** faults unless [b] is in 0..63 *)
  | Rsh  (** faults unless [b] is in 0..63 *)
  | Mod  (** BPF_MOD: faults on a zero [b] *)
  | Popcount  (** of [a] *)
  | Find_nth  (** position of [a]'s [b]-th set bit, from 1; -1 if none *)
  | Recip  (** [reciprocal_scale(a, b)]; faults unless [b > 0] *)
  | Lookup of Ebpf_maps.Array_map.t  (** [dst := map\[a\]]; faults on a bad key *)
  | Select of Ebpf_maps.Sockarray.t
      (** [bpf_sk_select_reuseport] of slot [a]: selects the socket and
          sets [dst := 0]; faults on an empty or out-of-range slot *)
  | Redirect of Ebpf_maps.Sockmap.t
      (** [bpf_sk_redirect_map] of key [a]: takes the entry as the
          redirect target and sets [dst := 1] when the slot is
          occupied, [dst := 0] otherwise; faults on an out-of-range
          key *)
  | Copy
      (** [bpf_sk_copy] of [a] bytes: [dst := a]; faults outside
          0..{!copy_limit} *)

val step :
  file -> ?proved:bool -> op -> cost:int -> a:int -> ?b:int -> dst:int -> k -> k
(** The step that charges [cost] cycles, then does [op] over slots [a]
    and [b] (default [a]) into [dst], then runs the next step.  A fault
    check comes after the charge, so a faulting run reports its partial
    count.  [~proved:true] (the bytecode front end, where the
    verifier's certificate discharged the site) compiles the check out;
    [Recip] is always checked. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge  (** signed 64-bit *)

val branch : file -> cmp -> cost:int -> a:int -> b:int -> k -> k -> k
(** [branch f cmp ~cost ~a ~b yes no] charges [cost], then runs [yes]
    if [a cmp b] holds and [no] otherwise. *)

val jump : file -> cost:int -> k -> k
(** Charges [cost], then runs the given step. *)

val exit : file -> cost:int -> int -> k
(** The verdict that charges [cost] and returns the exit code. *)

val exit_reg :
  file -> cost:int -> pass:int64 -> drop:int64 -> redirect:int64 -> int -> k
(** The verdict read from a slot, as bytecode's [exit] returns r0 in
    its own codes: [pass] needs a selected socket and [redirect] a
    redirect entry, else the run faults; any value but the three falls
    back. *)

val fault : k
(** Faults with no charge: running off either end of bytecode. *)

val finish : file -> k -> t
(** Size the register file, load the constants, and seal the program
    with its entry step. *)

(** {1 Running} *)

val exec : t -> flow_hash:int -> dst_port:int -> int
(** Run the program on one packet without allocating: the exit code (1
    select, 0 fallback — including any runtime fault — 2 drop, 3
    redirect).  A fault makes the program fall back, as the kernel
    ignores a failing program and uses the default selection.  Emits no
    trace event: {!Reuseport.select} records each attached program's
    run. *)

val last_cycles : t -> int
(** Cycle estimate of the last {!exec}, a faulting run's partial count
    included. *)

val selected : t -> Socket.t option
(** Socket chosen by the last {!exec} ([None] unless it returned 1):
    the sockarray's own option cell, so reading it allocates nothing. *)

val redirected : t -> Ebpf_maps.Sockmap.entry option
(** Sockmap entry the last {!exec} redirected to ([None] unless it
    returned 3): the sockmap's own option cell. *)

val copy_len : t -> int
(** Payload bytes the last redirect asked to copy up to userspace (0
    unless {!exec} returned 3). *)
