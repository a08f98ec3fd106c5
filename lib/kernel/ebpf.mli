(** Restricted eBPF execution model for reuseport socket selection.

    Programs attached via [SO_ATTACH_REUSEPORT_EBPF] are written in a
    small expression language that enforces, by construction and by a
    verifier pass, the constraints §5.1.3 highlights: no loops, no
    recursion, no complex hash computation — only arithmetic, bitwise
    operations, bounded map lookups, and the whitelisted kernel helpers
    ([bpf_map_lookup_elem], [reciprocal_scale],
    [bpf_sk_select_reuseport]) plus the bit-twiddling rank/select
    routines of {!Bitops}.

    The verifier bounds program size and depth and returns an opaque
    {!verified} witness; only verified programs can be attached or run,
    mirroring how the kernel refuses unverified bytecode.  Evaluation
    returns a cycle estimate so experiments can account the in-kernel
    dispatcher's overhead (Table 5). *)

type expr =
  | Const of int64
  | Flow_hash  (** the connection hash the kernel precomputed at SYN *)
  | Dst_port
  | Var of string  (** read a register bound by [Let] / [Let_ret] *)
  | Let of string * expr * expr
      (** bind a register for the body — evaluates the bound expression
          exactly once, like holding a value in r1..r5 *)
  | Lookup of Ebpf_maps.Array_map.t * expr
      (** [bpf_map_lookup_elem]; an out-of-bounds key at runtime makes
          the whole program fall back, like a NULL-deref guard *)
  | Popcount of expr  (** CountNonZeroBits, Algo 2 line 3 *)
  | Find_nth_set of expr * expr
      (** FindNthNonZeroBit(bitmap, n), Algo 2 line 6; yields -1 when
          absent *)
  | Reciprocal_scale of expr * expr  (** reciprocal_scale(hash, n) *)
  | Band of expr * expr
  | Bor of expr * expr
  | Bxor of expr * expr
  | Add of expr * expr
  | Sub of expr * expr
  | Shl of expr * expr
  | Shr of expr * expr
  | Mod of expr * expr  (** BPF_MOD; a zero divisor faults the program *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type ret =
  | Select of Ebpf_maps.Sockarray.t * expr
      (** [bpf_sk_select_reuseport(M_socket, idx)] *)
  | Fallback  (** defer to the default hash-based reuseport selection *)
  | Drop
  | If of cmp * expr * expr * ret * ret
  | Let_ret of string * expr * ret
      (** bind a register scoped over a return branch *)
  | Redirect of Ebpf_maps.Sockmap.t * expr * expr * ret
      (** [Redirect (map, key, copy, miss)]:
          [bpf_sk_redirect_map(M_splice, key)] followed by
          [bpf_sk_copy(copy)] — splice the packet to the sockmap entry
          under [key], pulling at most [copy] payload bytes up to
          userspace; an unoccupied slot falls through to [miss].  An
          out-of-range key or copy length faults the program. *)

type prog = { name : string; body : ret }

val copy_limit : int
(** Upper bound on a [Redirect] copy length (65536 — one socket
    buffer); the verifier demands a proof or a runtime guard. *)

type verified
(** A program that passed verification; the only runnable form. *)

val verify : prog -> (verified, string) result
(** Static checks: instruction budget, expression depth, non-empty
    name, and that every [Var] is bound by an enclosing [Let] — the
    analogue of the kernel verifier rejecting reads of uninitialized
    registers.  (Loops and helper calls outside the whitelist are
    unrepresentable.) *)

val verify_exn : prog -> verified
(** @raise Invalid_argument with the verifier message on rejection. *)

val name : verified -> string
val insn_count : verified -> int

type ctx = { flow_hash : int; dst_port : int }

type outcome =
  | Selected of Socket.t
  | Fell_back
  | Dropped
  | Redirected of { conn : int; target : int; copy : int }
      (** the packet was spliced in-kernel to connection [conn]'s
          owner [target], with [copy] payload bytes copied up to
          userspace for inspection *)

val run : verified -> ctx -> outcome * int
(** Execute; the second component is the cycle estimate.  A runtime
    fault (bad map key, select of an empty or out-of-range sockarray
    slot, shift out of range) yields [Fell_back], as the kernel ignores
    a failing program and uses the default selection.  Emits no trace
    event: {!Reuseport.select} records each attached program's run. *)
