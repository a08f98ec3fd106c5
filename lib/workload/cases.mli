(** The four traffic cases of Table 3.

    The paper characterizes production traffic along two axes —
    connections-per-second and average LB processing time — and
    evaluates the three dispatch modes in each quadrant:

    - Case 1: high CPS, low processing time (stress tests, spikes)
    - Case 2: high CPS, high processing time (spikes of heavy work,
      e.g. compression)
    - Case 3: low CPS, low processing time (finance/chat long-lived
      connections)
    - Case 4: low CPS, high processing time (web services: SSL
      handshakes, regex routing)

    Profiles are parameterized by the worker count so the light load
    lands at a comparable utilization on any device size; "medium" and
    "heavy" replay the same traffic at 2x and 3x (§6.2). *)

type case = Case1 | Case2 | Case3 | Case4

val all : case list
val name : case -> string

(** {1 Splice workload axis}

    The splice fast path (PR 9) is priced by bytes, not requests, so
    its evaluation axis is the bytes-per-connection ratio rather than
    Table 3's CPS/processing quadrants. *)

type splice_axis =
  | Short_rpc  (** a handful of sub-KB exchanges per connection *)
  | Long_streaming  (** hundreds of 64 KiB chunks per connection *)

val splice_axes : splice_axis list
val splice_axis_name : splice_axis -> string

val splice_profile : splice_axis -> workers:int -> Profile.t
(** Light-load profile (~45% device utilization under the userspace
    proxy) for a device with [workers] cores.  Processing times match
    the proxy's forwarding cost for the median chunk, so proxy and
    splice runs of the same profile price the same logical work. *)

type load = Light | Medium | Heavy

val loads : load list
val load_factor : load -> float
(** 1.0 / 2.0 / 3.0 *)

val profile : case -> workers:int -> Profile.t
(** The light-load profile for a device with [workers] cores. *)
