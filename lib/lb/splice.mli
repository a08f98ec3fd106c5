(** In-kernel L7 splice fast path: userspace-directed sockmap handoff.

    Once a connection is established and its session routed, the LB's
    remaining per-byte work is pure forwarding — and the userspace
    proxy pays two syscalls plus two full copies for every chunk.
    This module models the kernel-bypass alternative: userspace
    installs the connection into a {!Kernel.Ebpf_maps.Sockmap} and
    attaches a verified redirect program
    ({!Hermes.Dispatch.splice_prog}); subsequent payload runs the
    program in-kernel (its bytecode compiled by {!Kernel.Ebpf_jit})
    and splices straight to the owning worker's socket, optionally
    copying a bounded prefix up for L7 inspection ([bpf_sk_copy]).

    Userspace keeps {e directing} the fast path — attach on
    establishment, teardown on close/reset/isolate/restart — and keeps
    its own view of the map ({e conn → (key, worker)}).  The safety of
    the whole scheme rests on those two views agreeing, so:

    - {b strict} mode (default) double-checks every redirect against
      the forwarding connection's id and refuses attaches whose slot
      is already taken; a stale entry degrades to the proxy path and
      is counted in [desync_blocked].
    - {!set_desynced} injects the failure the check defends against: a
      worker whose [sock_delete]s are lost, leaving stale entries that
      — without strict mode — redirect other connections' bytes to a
      torn-down worker.  The chaos monitors flag any such redirect. *)

type t

type stats = {
  mutable attaches : int;  (** sockmap entries installed *)
  mutable collisions : int;
      (** attaches refused (strict) or mis-recorded (sloppy) because
          the slot already carried another live connection *)
  mutable redirects : int;  (** chunks forwarded in-kernel *)
  mutable fallbacks : int;  (** chunks sent back to the proxy path *)
  mutable desync_blocked : int;
      (** redirects refused by the strict conn-id check — each one is
          a stale sockmap entry caught before it misdelivered bytes *)
  mutable teardowns : int;
  mutable prog_cycles : int;  (** redirect-program cycles *)
  mutable splice_cycles : int;
      (** in-kernel forwarding cycles ({!Netsim.Copy.splice_cycles}
          plus the selective-copy cost) *)
  mutable redirected_bytes : int;
  mutable copied_bytes : int;  (** bytes selectively copied up *)
}

type decision =
  | Redirect of { conn : int; worker : int; copied : int; cycles : int }
      (** the kernel spliced the chunk to [worker]; [conn] is the
          connection the sockmap slot {e named} — equal to the caller's
          under strict mode, possibly stale without it.  [cycles] is
          this chunk's total in-kernel cost (program + splice +
          selective copy), for latency and Table-5 accounting. *)
  | Fallback  (** serve through the userspace proxy *)

val create : workers:int -> ?slots:int -> ?copy:int -> unit -> t
(** [slots] (default 4096) is rounded up to a power of two so the
    program's masked key verifies with zero residual checks — {!create}
    asserts {!Kernel.Ebpf_vm.fully_proved} and rejects otherwise.
    [copy] is the per-chunk selective-copy budget in bytes (default 0;
    bounded by {!Kernel.Ebpf.copy_limit}). *)

val attach : t -> conn:int -> flow_hash:int -> worker:int -> int option
(** Install [conn] (owned by [worker]) into the sockmap under its
    masked flow hash; returns the key, or [None] when already attached
    or — in strict mode — when the slot carries another connection
    (counted in [collisions]).  Without strict mode a collision still
    returns the key and records the attachment {e as if} it succeeded,
    modelling userspace that does not check its map updates. *)

val decide :
  t -> conn:int -> flow_hash:int -> dst_port:int -> bytes:int -> decision
(** Run the redirect program for one [bytes]-sized chunk of [conn].
    Strict mode falls back whenever the slot entry's connection id
    differs from [conn].  Accounts program and splice cycles in
    {!stats}. *)

val teardown : t -> conn:int -> (int * int) option
(** Remove [conn]'s entry; returns [(key, worker)] as userspace
    recorded them, [None] if not attached.  On a {!set_desynced}
    worker the userspace record is dropped but the kernel-side slot
    survives — the lost [sock_delete] the fault class injects. *)

val teardown_worker : t -> worker:int -> (int * int) list
(** Tear down every attachment recorded against [worker] (isolate /
    restart sweeps); returns [(conn, key)] per entry removed, in
    increasing conn id. *)

val is_attached : t -> conn:int -> bool
val attached : t -> int
(** Live attachments in the userspace view. *)

val set_strict : t -> bool -> unit
(** Toggle the userspace-directed verification (conn-id re-check and
    attach-outcome check).  Disabling it is only useful to let the
    [splice_desync] fault actually misdeliver, so the monitors can be
    shown to catch it. *)

val set_desynced : t -> worker:int -> bool -> unit
(** While set, sockmap deletes targeting [worker] are silently lost
    (the [splice_desync] fault class). *)

val stats : t -> stats

