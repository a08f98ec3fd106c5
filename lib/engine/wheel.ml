(* Hierarchical timing wheel over a struct-of-arrays entry store.  See
   wheel.mli for the design notes; the short version of the invariants
   maintained here:

   - [wt] (wheel time) is a lower bound on every pending entry's time.
   - An entry lives at level [l] iff its time, written in base-32
     digits, first differs from [wt] at digit [l]; its slot is that
     digit.  Hence every occupied slot is at or ahead of the level's
     cursor digit, the lowest non-empty level always holds the
     earliest entries, and a level-0 slot holds exactly one timestamp.
   - Every list is appended at its tail only, and cascades move
     entries in list order into lists that are empty beforehand (all
     levels below the cascading one are empty), so the entries of one
     timestamp always sit in one list in ascending [seq] order.  A
     level-0 slot therefore fires head first with no sorting.
   - Advancing [wt] to a level-l slot's base keeps digits above [l]
     unchanged, so higher-level placements stay valid; the slot's
     entries then re-place strictly below [l].
   - The spill list keeps entries whose time differs from [wt] above
     the top level, sorted by (time, seq); its head is the global
     minimum whenever the wheel proper is empty.

   Storage: every list is circular and doubly linked through [next] /
   [prev], closed by a sentinel.  Indices [0, lists) are the
   sentinels — [level * slots + slot] for the wheel proper, then the
   spill list — and entries take indices from [lists] up, recycled
   through a free list threaded through [next].  Unlinking needs no
   list id: an entry's neighbours close the gap, and a list that is
   left with only its sentinel clears its occupancy bit.  Indices are
   kept consistent by construction, so the hot paths use unchecked
   array accesses. *)

let slot_bits = 5
let slots = 32
let slot_mask = slots - 1
let levels = 10
let horizon_bits = slot_bits * levels (* 2^50 ns ≈ 13 days *)
let spill = levels * slots
let lists = spill + 1

(* A handle packs the entry index (low [idx_bits]) with the entry's
   generation, which is bumped every time the index is freed. *)
let idx_bits = 30
let idx_mask = (1 lsl idx_bits) - 1
let gen_mask = (1 lsl 31) - 1

let nop () = ()

type t = {
  mutable wt : int; (* wheel time *)
  occ : int array; (* per-level occupancy bitmap *)
  (* Indexed by sentinel or entry index. *)
  mutable next : int array; (* list successor, or free-list link *)
  mutable prev : int array;
  mutable time : int array;
  mutable seq : int array;
  mutable gen : int array;
  mutable action : (unit -> unit) array;
  mutable free : int; (* free-list head, -1 when empty *)
  mutable limit : int; (* first never-used index *)
  mutable live : int;
}

let create () =
  let cap = lists + 63 in
  let next = Array.make cap (-1) and prev = Array.make cap (-1) in
  for i = 0 to lists - 1 do
    next.(i) <- i;
    prev.(i) <- i
  done;
  {
    wt = 0;
    occ = Array.make levels 0;
    next;
    prev;
    time = Array.make cap 0;
    seq = Array.make cap 0;
    gen = Array.make cap 0;
    action = Array.make cap nop;
    free = -1;
    limit = lists;
    live = 0;
  }

let live_count t = t.live
let capacity t = Array.length t.time - lists

let is_live t h =
  h >= 0
  &&
  let i = h land idx_mask in
  i >= lists && i < t.limit && Array.unsafe_get t.gen i = h lsr idx_bits

(* Index of the lowest set bit via 32-bit De Bruijn multiplication. *)
let ctz_table =
  [|  0;  1; 28;  2; 29; 14; 24;  3; 30; 22; 20; 15; 25; 17;  4;  8;
     31; 27; 13; 23; 21; 19; 16;  7; 26; 12; 18;  6; 11;  5; 10;  9 |]

let ctz x = Array.unsafe_get ctz_table (((x land -x) * 0x077CB531 land 0xFFFFFFFF) lsr 27)

(* Highest differing base-32 digit of [x = time lxor wt], i.e. the
   level an entry belongs to. *)
let rec level_of x l = if x < slots then l else level_of (x lsr slot_bits) (l + 1)

let[@inline] link_after t j i =
  let n = Array.unsafe_get t.next j in
  Array.unsafe_set t.next j i;
  Array.unsafe_set t.prev i j;
  Array.unsafe_set t.next i n;
  Array.unsafe_set t.prev n i

(* Append to wheel list [l] (not the spill list). *)
let[@inline] link_tail t l i =
  link_after t (Array.unsafe_get t.prev l) i;
  let lv = l lsr slot_bits in
  Array.unsafe_set t.occ lv (Array.unsafe_get t.occ lv lor (1 lsl (l land slot_mask)))

let[@inline] unlink t i =
  let p = Array.unsafe_get t.prev i and n = Array.unsafe_get t.next i in
  Array.unsafe_set t.next p n;
  Array.unsafe_set t.prev n p;
  (* Only a sentinel can be both neighbours: its list is now empty. *)
  if p = n && p < spill then begin
    let lv = p lsr slot_bits in
    Array.unsafe_set t.occ lv
      (Array.unsafe_get t.occ lv land lnot (1 lsl (p land slot_mask)))
  end

let before t i j =
  let ti = Array.unsafe_get t.time i and tj = Array.unsafe_get t.time j in
  ti < tj || (ti = tj && Array.unsafe_get t.seq i < Array.unsafe_get t.seq j)

(* Sorted insert into the spill list, scanning back from the tail:
   far-future entries are rare and mostly arrive in order. *)
let rec spill_insert t i j =
  if j <> spill && before t i j then spill_insert t i (Array.unsafe_get t.prev j)
  else link_after t j i

(* Slot an entry relative to the current [wt]. *)
let[@inline] place t i =
  let time = Array.unsafe_get t.time i in
  let l = level_of (time lxor t.wt) 0 in
  if l >= levels then spill_insert t i (Array.unsafe_get t.prev spill)
  else link_tail t ((l lsl slot_bits) lor ((time lsr (l * slot_bits)) land slot_mask)) i

let grow t =
  let cap = Array.length t.time in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.next <- extend t.next (-1);
  t.prev <- extend t.prev (-1);
  t.time <- extend t.time 0;
  t.seq <- extend t.seq 0;
  t.gen <- extend t.gen 0;
  t.action <- extend t.action nop

let add t ~time ~seq action =
  if time < t.wt then invalid_arg "Wheel.add: time before wheel clock";
  let i =
    if t.free >= 0 then begin
      let i = t.free in
      t.free <- Array.unsafe_get t.next i;
      i
    end
    else begin
      if t.limit = Array.length t.time then grow t;
      let i = t.limit in
      t.limit <- i + 1;
      i
    end
  in
  Array.unsafe_set t.time i time;
  Array.unsafe_set t.seq i seq;
  Array.unsafe_set t.action i action;
  place t i;
  t.live <- t.live + 1;
  (Array.unsafe_get t.gen i lsl idx_bits) lor i

(* Return an unlinked entry's index to the free list; bumping the
   generation invalidates every handle issued for it. *)
let[@inline] release t i =
  Array.unsafe_set t.action i nop;
  Array.unsafe_set t.gen i ((Array.unsafe_get t.gen i + 1) land gen_mask);
  Array.unsafe_set t.next i t.free;
  t.free <- i;
  t.live <- t.live - 1

let cancel t h =
  if is_live t h then begin
    let i = h land idx_mask in
    unlink t i;
    release t i
  end

let time t i = t.time.(i)

let take t i =
  let a = t.action.(i) in
  unlink t i;
  release t i;
  a

let rec lowest_level t l =
  if l = levels || Array.unsafe_get t.occ l <> 0 then l else lowest_level t (l + 1)

(* Re-place the entries of a detached slot list, from [i] up to its
   sentinel [s], in list order. *)
let rec cascade t s i =
  if i <> s then begin
    let n = Array.unsafe_get t.next i in
    place t i;
    cascade t s n
  end

(* Pull every spill entry sharing the clock's 2^50 ns window into the
   wheel proper, in (time, seq) order. *)
let rec refill t top i =
  if i <> spill && Array.unsafe_get t.time i lsr horizon_bits = top then begin
    let n = Array.unsafe_get t.next i in
    unlink t i;
    place t i;
    refill t top n
  end

let rec next_before t ~limit =
  let l = lowest_level t 0 in
  if l = levels then begin
    let i = Array.unsafe_get t.next spill in
    if i = spill || Array.unsafe_get t.time i > limit then -1
    else begin
      (* The wheel proper is empty and the spill head is the global
         minimum: jump to its window. *)
      t.wt <- Array.unsafe_get t.time i;
      refill t (t.wt lsr horizon_bits) i;
      next_before t ~limit
    end
  end
  else begin
    let s = ctz (Array.unsafe_get t.occ l) in
    let li = (l lsl slot_bits) lor s in
    let i = Array.unsafe_get t.next li in
    if l = 0 then begin
      (* A level-0 slot is a single tick, already in seq order. *)
      let time = t.wt land lnot slot_mask lor s in
      if time > limit then -1
      else begin
        t.wt <- time;
        i
      end
    end
    else if Array.unsafe_get t.next i = li then begin
      (* Single-entry jump: every lower level is empty, so the lone
         entry of the lowest non-empty slot is the global minimum.
         Move the clock straight to it instead of cascading it level
         by level. *)
      let time = Array.unsafe_get t.time i in
      if time > limit then -1
      else begin
        t.wt <- time;
        unlink t i;
        link_tail t (time land slot_mask) i;
        i
      end
    end
    else begin
      let shift = (l + 1) * slot_bits in
      let base = (t.wt lsr shift) lsl shift lor (s lsl (l * slot_bits)) in
      if base > limit then -1
      else begin
        t.wt <- base;
        (* Detach the whole list, then re-place its entries below. *)
        Array.unsafe_set t.next li li;
        Array.unsafe_set t.prev li li;
        Array.unsafe_set t.occ l (Array.unsafe_get t.occ l land lnot (1 lsl s));
        cascade t li i;
        next_before t ~limit
      end
    end
  end

let rec min_in t s i acc =
  if i = s then acc else min_in t s t.next.(i) (min acc t.time.(i))

let earliest t =
  let l = lowest_level t 0 in
  if l = levels then
    let i = t.next.(spill) in
    if i = spill then max_int else t.time.(i)
  else
    let s = ctz t.occ.(l) in
    let li = (l lsl slot_bits) lor s in
    if l = 0 then t.wt land lnot slot_mask lor s else min_in t li t.next.(li) max_int
