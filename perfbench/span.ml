(* Benchmark-side span log.

   Spans are recorded only around calls the benchmark itself makes: one
   per [Sim.run_until] slice, one per client callback, and one per call
   into [Lb.Device] ([connect], [send], [close_conn]).  Each span keeps
   its kind, the client connection key (so one request's spans share an
   id), its parent, wall-clock start and stop, and the minor-heap word
   counter at both ends.  Nothing is aggregated while recording; the
   log stays in memory and is reduced (self time = duration minus
   children) and written out after the run. *)

(* CLOCK_MONOTONIC through bechamel's [@@noalloc] binding, which returns
   an unboxed int64: a read allocates nothing, so it never perturbs the
   words a span counts. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let slice = 0
let client = 1
let connect = 2
let send = 3
let close = 4
let kinds = 5
let kind_name = [| "engine.slice"; "client"; "lb.connect"; "lb.send"; "lb.close" |]

(* While false, every recording site is one load and one branch. *)
let on = ref false

open Bigarray

type buf = (int, int_elt, c_layout) Array1.t

(* Struct-of-arrays in one Bigarray: [fields] ints per span, outside the
   OCaml heap so the log neither allocates per span nor adds to GC
   scanning. *)
let fields = 7
let f_kind = 0
let f_key = 1
let f_parent = 2
let f_start = 3
let f_stop = 4
let f_w0 = 5
let f_w1 = 6

let data : buf ref = ref (Array1.create int c_layout (fields * (1 lsl 18)))
let count = ref 0
let stack = Array.make 32 0
let depth = ref 0

let reset () =
  count := 0;
  depth := 0

let grow () =
  let old = !data in
  let d : buf = Array1.create int c_layout (2 * Array1.dim old) in
  Array1.blit old (Array1.sub d 0 (Array1.dim old));
  data := d

let words () = int_of_float (Gc.minor_words ())

let enter kind key =
  let i = !count in
  if (i + 1) * fields > Array1.dim !data then grow ();
  let d = !data in
  let b = i * fields in
  d.{b + f_kind} <- kind;
  d.{b + f_key} <- key;
  d.{b + f_parent} <- (if !depth = 0 then -1 else stack.(!depth - 1));
  stack.(!depth) <- i;
  incr depth;
  count := i + 1;
  d.{b + f_w0} <- words ();
  d.{b + f_start} <- now_ns ()

let leave () =
  let t = now_ns () in
  let w = words () in
  decr depth;
  let d = !data in
  let b = stack.(!depth) * fields in
  d.{b + f_stop} <- t;
  d.{b + f_w1} <- w

(* Per-kind reduction of the log. *)
type summary = {
  calls : int array;
  self_ns : int array;
  self_words : int array;
  top_ns : int;  (** sum of root-span durations *)
  self_of : float array array;  (** per-kind self times, for percentiles *)
}

let summarize () =
  let n = !count in
  let d = !data in
  let child_ns = Array.make n 0 and child_w = Array.make n 0 in
  let self = Array.make n 0 in
  let calls = Array.make kinds 0 in
  let self_ns = Array.make kinds 0 and self_words = Array.make kinds 0 in
  let top = ref 0 in
  (* Children always have larger indices than their parent, so one
     backward pass sees every child before its parent. *)
  for i = n - 1 downto 0 do
    let b = i * fields in
    let k = d.{b + f_kind} in
    let dur = d.{b + f_stop} - d.{b + f_start} in
    let w = d.{b + f_w1} - d.{b + f_w0} in
    self.(i) <- dur - child_ns.(i);
    calls.(k) <- calls.(k) + 1;
    self_ns.(k) <- self_ns.(k) + self.(i);
    self_words.(k) <- self_words.(k) + (w - child_w.(i));
    let p = d.{b + f_parent} in
    if p >= 0 then begin
      child_ns.(p) <- child_ns.(p) + dur;
      child_w.(p) <- child_w.(p) + w
    end
    else top := !top + dur
  done;
  let self_of = Array.init kinds (fun k -> Array.make calls.(k) 0.0) in
  let fill = Array.make kinds 0 in
  for i = 0 to n - 1 do
    let k = d.{(i * fields) + f_kind} in
    self_of.(k).(fill.(k)) <- float_of_int self.(i);
    fill.(k) <- fill.(k) + 1
  done;
  { calls; self_ns; self_words; top_ns = !top; self_of }

(* One tab-separated line per span, times relative to the first span. *)
let write_tsv path =
  let d = !data in
  let n = !count in
  let t0 = if n = 0 then 0 else d.{f_start} in
  let oc = open_out path in
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b "id\tparent\tkind\tkey\tstart_ns\tdur_ns\twords\n";
  for i = 0 to n - 1 do
    let o = i * fields in
    Printf.bprintf b "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" i d.{o + f_parent}
      kind_name.(d.{o + f_kind})
      d.{o + f_key}
      (d.{o + f_start} - t0)
      (d.{o + f_stop} - d.{o + f_start})
      (d.{o + f_w1} - d.{o + f_w0});
    if Buffer.length b > 1 lsl 15 then begin
      Buffer.output_buffer oc b;
      Buffer.clear b
    end
  done;
  Buffer.output_buffer oc b;
  close_out oc
