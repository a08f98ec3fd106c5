(** Two-level worker grouping.

    A 64-bit bitmap caps one lock-free atomic at 64 workers, so §7
    ("will the 64-bit atomic limit Hermes on 128-core machines?")
    groups workers into sets of at most 64.  Level-1 selection picks a
    group — by flow hash for plain scaling, or by destination port for
    the cache-locality mode of Fig. A6 — and level-2 applies the
    standard Hermes bitmap logic within the group.  Each group has its
    own independent WST, updated only by its members.

    Degenerate settings recover the paper's spectrum: a single group is
    standard Hermes; one worker per group is plain reuseport. *)

type select_mode =
  | By_flow_hash  (** level-1 via reciprocal_scale of the 4-tuple hash *)
  | By_dst_port  (** level-1 via Dport modulo — requests for the same
                     port stick to one group (cache locality) *)

type t

val create : workers:int -> group_size:int -> mode:select_mode -> t
(** Partition [workers] into ceil(workers/group_size) groups.
    @raise Invalid_argument unless [1 <= group_size <= 64] and
    [workers >= 1]. *)

val group_count : t -> int

val group_of_worker : t -> int -> int * int
(** [(group index, index within group)]. *)

val group_size_of : t -> int -> int
val group_base : t -> int -> int
(** Global worker id of the group's first member. *)

val wst : t -> int -> Wst.t
(** The group's private WST. *)

val m_sel : t -> Kernel.Ebpf_maps.Array_map.t
(** The selection map: one 64-bit bitmap slot per group (slot = group
    index).  A single-map-multiple-keys encoding of the paper's
    map-per-group — each slot is still one independent atomic. *)

val make_prog :
  t -> m_socket:Kernel.Ebpf_maps.Sockarray.t -> min_selected:int ->
  Kernel.Ebpf.prog
(** The full two-level dispatch program for one port's reuseport group:
    level-1 group choice unrolled as a verified branch chain, level-2
    the Algo 2 body per group.  [m_socket] must be indexed by global
    worker id. *)
