(* Per-byte data-movement cost model for established-connection
   forwarding.  All figures are CPU cycles (Lb.Cost.cycles_to_time
   converts at the simulation's fixed clock), calibrated coarsely
   against the XLB/Libra measurements: a userspace proxy pays two
   syscalls and two full kernel<->user copies per forwarded chunk,
   while a sockmap splice moves page references inside the kernel and
   copies only the bytes userspace explicitly asked to inspect. *)

let syscall_cycles = 600
let copy_cycles_per_kb = 768 (* ~0.75 cycles/byte copyin/copyout *)
let splice_base_cycles = 150 (* sk_redirect verdict + queue move *)
let splice_cycles_per_kb = 48 (* page-reference bookkeeping, no byte copy *)

let check_bytes fn bytes =
  if bytes < 0 then invalid_arg ("Copy." ^ fn ^ ": negative byte count")

let user_copy_cycles ~bytes =
  check_bytes "user_copy_cycles" bytes;
  copy_cycles_per_kb * bytes / 1024

let splice_cycles ~bytes =
  check_bytes "splice_cycles" bytes;
  splice_base_cycles + (splice_cycles_per_kb * bytes / 1024)

(* The Libra-style selective copy: the redirect stays in-kernel, but
   [bytes] of payload are additionally copied up for inspection (one
   direction, no syscall — the bytes ride an already-mapped ring). *)
let selective_copy_cycles ~bytes = user_copy_cycles ~bytes
