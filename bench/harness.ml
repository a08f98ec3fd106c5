(* The one harness every regression-benchmark family runs through.

   A family runs its scenarios and returns rows: a (family, name, size)
   key plus named float metrics.  A metric the run cannot measure is
   absent from the row.  The family also says which gates each row must
   pass against the committed baseline, [bench/baseline.json], which
   holds the rows of every family in one file.

   "size" is the workload size a row was measured at ("quick" or
   "full").  Ratios differ systematically with workload size, so a row
   is only ever compared against the baseline row of the same size. *)

module Row = struct
  type t = {
    family : string;
    name : string;
    size : string;
    metrics : (string * float) list;
  }

  (* Non-finite values are unmeasured values: dropped like any other
     absent metric. *)
  let v ~family ~name ~size metrics =
    let metrics = List.filter (fun (_, x) -> Float.is_finite x) metrics in
    { family; name; size; metrics }

  let get r m = List.assoc_opt m r.metrics
  let same_key a b = a.family = b.family && a.name = b.name && a.size = b.size
  let size ~quick = if quick then "quick" else "full"
end

module Gate = struct
  type bound =
    | Rel_floor of float  (** value >= k x the same-key baseline value *)
    | Floor of float  (** value >= k *)
    | Zero  (** value = 0 *)
    | Exact  (** value = the same-key baseline value *)
    | Ceiling of float * float
        (** value <= k x the same-key baseline value + slack *)

  type t = { metric : string; bound : bound }

  let v metric bound = { metric; bound }
end

module Family = struct
  type t = {
    name : string;
    run : quick:bool -> Row.t list;
    gates : Row.t -> Gate.t list;
        (* a row with no gates is informational and never judged *)
  }

  let v ?(gates = fun _ -> []) name run = { name; run; gates }
end

(* ------------------------------------------------------------------ *)
(* Paired timing                                                        *)

(* The key a timed loop derives from its op index: a multiplicative
   hash, so consecutive ops probe scattered slots. *)
let mix i = (i * 0x61C88647) lxor (i lsr 7)

let time_best ~name ~reps f =
  let best = ref infinity in
  let first = ref 0 in
  for i = 0 to reps - 1 do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    if i = 0 then first := r
    else if r <> !first then
      failwith ("bench " ^ name ^ ": scenario is nondeterministic across reps")
  done;
  (!best *. 1e9, !first)

(* Best-of-[reps] wall ns of the fast block, then of the base block, and
   the checksum both sides must agree on. *)
let run_pair ~name ~reps fast base =
  let fast_ns, cf = time_best ~name ~reps fast in
  let base_ns, cb = time_best ~name ~reps base in
  if cf <> cb then
    failwith
      (Printf.sprintf
         "bench %s: fast and baseline disagree (checksums %d vs %d)" name cf
         cb);
  (fast_ns, base_ns, cf)

(* Minor-word accounting only means something on an uninstrumented
   native runtime; calibrate with a loop known to allocate nothing. *)
let calibrated =
  lazy
    (match Sys.backend_type with
    | Sys.Native ->
      let arr = Array.make 64 1 in
      let sink = ref 0 in
      let before = Gc.minor_words () in
      for _ = 1 to 1000 do
        for i = 0 to 63 do
          sink := !sink + Array.unsafe_get arr i
        done
      done;
      ignore !sink;
      Gc.minor_words () -. before < 256.0
    | _ -> false)

let words_per_op ~ops f =
  if not (Lazy.force calibrated) then None
  else begin
    f ();
    (* warm *)
    let before = Gc.minor_words () in
    f ();
    let d = Gc.minor_words () -. before in
    (* the two probes box a handful of words themselves *)
    Some (if d < 64.0 then 0.0 else d /. float_of_int ops)
  end

(* A fast path against the retired implementation it replaced: ns/op of
   each side, their ratio, minor words/op on the fast path (when the
   runtime can measure it) and the shared checksum. *)
let paired ~family ~name ~size ~reps ~ops ?words fast base =
  let fast_ns, base_ns, checksum = run_pair ~name ~reps fast base in
  let fast_words = Option.bind words (words_per_op ~ops) in
  let per_op ns = ns /. float_of_int ops in
  Row.v ~family ~name ~size
    ([
       ("fast_ns", per_op fast_ns);
       ("base_ns", per_op base_ns);
       ("speedup", base_ns /. fast_ns);
     ]
    @ Option.to_list (Option.map (fun w -> ("fast_words", w)) fast_words)
    @ [ ("checksum", float_of_int checksum) ])

(* ------------------------------------------------------------------ *)
(* Table                                                                *)

let cell x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Stats.Table.cell_f x

let print_table (f : Family.t) rows =
  Printf.printf "\n=== %s ===\n" f.name;
  let metrics =
    List.fold_left
      (fun acc (r : Row.t) ->
        acc
        @ List.filter (fun m -> not (List.mem m acc)) (List.map fst r.metrics))
      [] rows
  in
  let table = Stats.Table.create ~header:("name" :: "size" :: metrics) in
  List.iter
    (fun (r : Row.t) ->
      Stats.Table.add_row table
        (r.name :: r.size
        :: List.map
             (fun m -> Option.fold ~none:"n/a" ~some:cell (Row.get r m))
             metrics))
    rows;
  Stats.Table.print table

(* ------------------------------------------------------------------ *)
(* Baseline file                                                        *)

module Json = struct
  let schema = "hermes-bench/1"

  (* Shortest of %.15g / %.17g that reads back as the same float. *)
  let number x =
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

  let render_row (r : Row.t) =
    let field (k, v) = Trace.json_string k ^ ":" ^ v in
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> field (k, Trace.json_string v))
           [ ("family", r.family); ("name", r.name); ("size", r.size) ]
        @ List.map (fun (k, x) -> field (k, number x)) r.metrics)
    ^ "}"

  let to_string rows =
    Printf.sprintf "{\"schema\":%s,\"rows\":[%s\n]}\n" (Trace.json_string schema)
      (String.concat "," (List.map (fun r -> "\n" ^ render_row r) rows))

  type value =
    | Str of string
    | Num of float
    | Arr of value list
    | Obj of (string * value) list

  exception Bad of int * string

  (* Enough JSON for the files this module writes; nesting deeper than
     the format needs is rejected rather than recursed into. *)
  let parse s =
    let n = String.length s and pos = ref 0 in
    let fail msg = raise (Bad (!pos, msg)) in
    let rec skip () =
      if !pos < n && String.contains " \t\r\n" s.[!pos] then (incr pos; skip ())
    in
    let peek () =
      skip ();
      if !pos < n then s.[!pos] else fail "unexpected end of input"
    in
    let expect c =
      if peek () = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
    in
    let str () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        incr pos;
        match c with
        | '"' -> Buffer.contents b
        | '\\' when !pos < n && String.contains "\"\\/" s.[!pos] ->
          Buffer.add_char b s.[!pos];
          incr pos;
          go ()
        | '\\' when !pos < n && String.contains "bfnrt" s.[!pos] ->
          Buffer.add_char b
            (match s.[!pos] with
            | 'b' -> '\b'
            | 'f' -> '\012'
            | 'n' -> '\n'
            | 'r' -> '\r'
            | _ -> '\t');
          incr pos;
          go ()
        | '\\' when !pos + 4 < n && s.[!pos] = 'u' -> (
          match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
          | Some c when c < 0x100 ->
            Buffer.add_char b (Char.chr c);
            pos := !pos + 5;
            go ()
          | _ -> fail "unsupported \\u escape")
        | '\\' -> fail "unsupported escape"
        | c ->
          Buffer.add_char b c;
          go ()
      in
      go ()
    in
    let num () =
      let start = !pos in
      while !pos < n && String.contains "0123456789+-.eE" s.[!pos] do
        incr pos
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some x when Float.is_finite x -> x
      | _ ->
        pos := start;
        fail "bad number"
    in
    let rec value depth =
      if depth > 4 then fail "nested too deeply";
      match peek () with
      | '"' -> Str (str ())
      | '[' ->
        incr pos;
        Arr (items ']' (fun () -> value (depth + 1)))
      | '{' ->
        incr pos;
        Obj
          (items '}' (fun () ->
               let k = str () in
               expect ':';
               (k, value (depth + 1))))
      | _ -> Num (num ())
    and items : 'a. char -> (unit -> 'a) -> 'a list =
     fun close item ->
      if peek () = close then (incr pos; [])
      else
        let x = item () in
        if peek () = ',' then (incr pos; x :: items close item)
        else (expect close; [ x ])
    in
    let v = value 0 in
    skip ();
    if !pos < n then fail "trailing data";
    v

  let row_of i = function
    | Obj fields -> (
      let key k =
        match List.assoc_opt k fields with Some (Str s) -> Some s | _ -> None
      in
      let metrics =
        List.filter_map
          (function
            | ("family" | "name" | "size"), Str _ -> None
            | k, Num x -> Some (Some (k, x))
            | _ -> Some None)
          fields
      in
      match (key "family", key "name", key "size") with
      | Some family, Some name, Some size when not (List.mem None metrics) ->
        Ok { Row.family; name; size; metrics = List.filter_map Fun.id metrics }
      | _ ->
        Error
          (Printf.sprintf
             "row %d: needs string family/name/size and numeric metrics" i))
    | _ -> Error (Printf.sprintf "row %d is not an object" i)

  let of_string s =
    match parse s with
    | exception Bad (at, msg) -> Error (Printf.sprintf "byte %d: %s" at msg)
    | Obj fields when List.assoc_opt "schema" fields <> Some (Str schema) ->
      Error (Printf.sprintf "not a %s file" schema)
    | Obj fields -> (
      match List.assoc_opt "rows" fields with
      | Some (Arr rows) ->
        List.fold_right
          (fun r acc -> Result.bind r (fun r -> Result.map (List.cons r) acc))
          (List.mapi row_of rows) (Ok [])
      | _ -> Error "no \"rows\" array")
    | _ -> Error "not a JSON object"

  let read file =
    match In_channel.with_open_bin file In_channel.input_all with
    | exception Sys_error msg -> Error msg
    | s -> of_string s

  (* Rows already in [existing] are replaced in place by the run's row
     with the same key; new keys are appended. *)
  let merge existing rows =
    List.map
      (fun old ->
        Option.value ~default:old (List.find_opt (Row.same_key old) rows))
      existing
    @ List.filter (fun r -> not (List.exists (Row.same_key r) existing)) rows

  (* Merges into an existing file, so a quick run never drops the full
     rows (or rows of other families) already there; an existing file
     that does not read back is left alone. *)
  let write file rows =
    Result.map
      (fun existing ->
        Out_channel.with_open_bin file (fun oc ->
            output_string oc (to_string (merge existing rows))))
      (if Sys.file_exists file then read file else Ok [])
end

(* ------------------------------------------------------------------ *)
(* The gate evaluator                                                   *)

let violation (g : Gate.t) r (b : Row.t option) =
  let base m = Option.bind b (fun b -> Row.get b m) in
  let fail fmt = Printf.ksprintf Option.some fmt in
  match (g.bound, Row.get r g.metric, base g.metric) with
  | Rel_floor k, Some v, Some bv when v < k *. bv ->
    fail "%s %g < %g x baseline %g" g.metric v k bv
  | Floor k, Some v, _ when v < k -> fail "%s %g < floor %g" g.metric v k
  | Zero, Some v, _ when v <> 0.0 -> fail "%s %g, want 0" g.metric v
  | Exact, Some v, Some bv when v <> bv ->
    fail "%s %g <> baseline %g" g.metric v bv
  | Ceiling (k, slack), Some v, Some bv when v > (k *. bv) +. slack ->
    fail "%s %g > %g x baseline %g + %g" g.metric v k bv slack
  | _ -> None

(* Every failure for the rows of [f] among [rows], each judged against
   the baseline row of the same key.  A gated row with no baseline row
   fails; gates with nothing to compare (an absent metric) pass. *)
let judge (f : Family.t) ~baseline rows =
  let own = List.filter (fun (r : Row.t) -> r.family = f.name) in
  let base = own baseline in
  List.concat_map
    (fun r ->
      match f.gates r with
      | [] -> []
      | gates ->
        let b = List.find_opt (Row.same_key r) base in
        (if b = None then [ (r, "no baseline row") ] else [])
        @ List.filter_map
            (fun g -> Option.map (fun x -> (r, x)) (violation g r b))
            gates)
    (own rows)

let check ~baseline families rows =
  let ok = ref true in
  List.iter
    (fun (f : Family.t) ->
      List.iter
        (fun ((r : Row.t), msg) ->
          ok := false;
          Printf.eprintf "bench REGRESSION: %s %s (%s): %s\n" f.name r.name
            r.size msg)
        (judge f ~baseline rows))
    families;
  if !ok then print_string "bench: regression gate passed\n";
  !ok

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

module Cli = struct
  type t = {
    quick : bool;
    only : string list; (* empty: every family *)
    json : string option;
    check : string option;
  }

  let baseline = "bench/baseline.json"

  let usage =
    "usage: main.exe [--quick] [--only F,G] [--json[=FILE]] [--check[=FILE]]\n\
    \  FILE defaults to " ^ baseline

  let parse ~families args =
    let rec go o = function
      | [] -> Ok o
      | "--quick" :: rest -> go { o with quick = true } rest
      | "--json" :: rest -> go { o with json = Some baseline } rest
      | "--check" :: rest -> go { o with check = Some baseline } rest
      | "--only" :: list :: rest -> only o list rest
      | arg :: rest -> (
        match String.index_opt arg '=' with
        | Some i -> (
          let value = String.sub arg (i + 1) (String.length arg - i - 1) in
          match String.sub arg 0 i with
          | "--json" -> go { o with json = Some value } rest
          | "--check" -> go { o with check = Some value } rest
          | "--only" -> only o value rest
          | _ -> Error (Printf.sprintf "unknown argument %S" arg))
        | None -> Error (Printf.sprintf "unknown argument %S" arg))
    and only o list rest =
      let names = String.split_on_char ',' list in
      match List.find_opt (fun f -> not (List.mem f families)) names with
      | Some f ->
        Error
          (Printf.sprintf "unknown family %S (families: %s)" f
             (String.concat "," families))
      | None -> go { o with only = o.only @ names } rest
    in
    go { quick = false; only = []; json = None; check = None } args
end
