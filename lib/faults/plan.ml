module Sim_time = Engine.Sim_time

type action =
  | Crash of { worker : int }
  | Isolate of { worker : int }
  | Recover of { worker : int }
  | Hang of { worker : int; duration : Sim_time.t }
  | Gc_pause of { worker : int; duration : Sim_time.t }
  | Slowdown of { worker : int; factor : int; duration : Sim_time.t }
  | Wst_stall of { worker : int; duration : Sim_time.t }
  | Map_sync_delay of { delay : Sim_time.t; duration : Sim_time.t }
  | Ebpf_fail of { duration : Sim_time.t }
  | Probe_loss of { duration : Sim_time.t }
  | Accept_overflow of { worker : int; duration : Sim_time.t }
  | Splice_desync of { worker : int; duration : Sim_time.t }

type entry = { at : Sim_time.t; action : action }
type t = entry list

let kind : action -> Trace.fault = function
  | Crash _ -> Crash
  | Isolate _ -> Isolate
  | Recover _ -> Recover
  | Hang _ -> Hang
  | Gc_pause _ -> Gc_pause
  | Slowdown _ -> Slowdown
  | Wst_stall _ -> Wst_stall
  | Map_sync_delay _ -> Map_sync_delay
  | Ebpf_fail _ -> Ebpf_fail
  | Probe_loss _ -> Probe_loss
  | Accept_overflow _ -> Accept_overflow
  | Splice_desync _ -> Splice_desync

let worker_of = function
  | Crash { worker }
  | Isolate { worker }
  | Recover { worker }
  | Hang { worker; _ }
  | Gc_pause { worker; _ }
  | Slowdown { worker; _ }
  | Wst_stall { worker; _ }
  | Accept_overflow { worker; _ }
  | Splice_desync { worker; _ } ->
    Some worker
  | Map_sync_delay _ | Ebpf_fail _ | Probe_loss _ -> None

let duration_of = function
  | Crash _ | Isolate _ | Recover _ -> None
  | Hang { duration; _ }
  | Gc_pause { duration; _ }
  | Slowdown { duration; _ }
  | Wst_stall { duration; _ }
  | Map_sync_delay { duration; _ }
  | Ebpf_fail { duration }
  | Probe_loss { duration }
  | Accept_overflow { duration; _ }
  | Splice_desync { duration; _ } ->
    Some duration

let stops_availability : Trace.fault -> bool = function
  | Crash | Hang | Gc_pause | Wst_stall -> true
  | Isolate | Recover | Slowdown | Map_sync_delay | Ebpf_fail | Probe_loss
  | Accept_overflow | Splice_desync ->
    false

(* Text format *)

let time_to_string (t : Sim_time.t) =
  if t <> 0 && t mod 1_000_000_000 = 0 then
    Printf.sprintf "%ds" (t / 1_000_000_000)
  else if t <> 0 && t mod 1_000_000 = 0 then Printf.sprintf "%dms" (t / 1_000_000)
  else if t <> 0 && t mod 1_000 = 0 then Printf.sprintf "%dus" (t / 1_000)
  else Printf.sprintf "%dns" t

let parse_time s =
  let strip suffix =
    let n = String.length s and k = String.length suffix in
    if n > k && String.sub s (n - k) k = suffix then
      Some (String.sub s 0 (n - k))
    else None
  in
  let with_unit mult digits =
    match int_of_string_opt digits with
    | Some v when v >= 0 && v <= max_int / mult -> Ok (v * mult)
    | Some v when v >= 0 -> Error (Printf.sprintf "time %S out of range" s)
    | _ -> Error (Printf.sprintf "bad time %S" s)
  in
  (* "ns"/"us"/"ms" before "s": "ms" also ends in "s". *)
  match strip "ns" with
  | Some d -> with_unit 1 d
  | None -> (
    match strip "us" with
    | Some d -> with_unit 1_000 d
    | None -> (
      match strip "ms" with
      | Some d -> with_unit 1_000_000 d
      | None -> (
        match strip "s" with
        | Some d -> with_unit 1_000_000_000 d
        | None -> with_unit 1 s)))

let entry_to_string { at; action } =
  let time = time_to_string in
  let args =
    match action with
    | Crash { worker } | Isolate { worker } | Recover { worker } ->
      Printf.sprintf "worker=%d" worker
    | Hang { worker; duration }
    | Gc_pause { worker; duration }
    | Wst_stall { worker; duration }
    | Accept_overflow { worker; duration }
    | Splice_desync { worker; duration } ->
      Printf.sprintf "worker=%d duration=%s" worker (time duration)
    | Slowdown { worker; factor; duration } ->
      Printf.sprintf "worker=%d factor=%d duration=%s" worker factor
        (time duration)
    | Map_sync_delay { delay; duration } ->
      Printf.sprintf "delay=%s duration=%s" (time delay) (time duration)
    | Ebpf_fail { duration } | Probe_loss { duration } ->
      Printf.sprintf "duration=%s" (time duration)
  in
  Printf.sprintf "at %s %s %s" (time at) (Trace.fault_name (kind action)) args

let to_string plan =
  String.concat "" (List.map (fun e -> entry_to_string e ^ "\n") plan)

let parse_entry ~line s =
  let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" line m)) fmt in
  let tokens =
    String.split_on_char ' ' s
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "")
  in
  match tokens with
  | "at" :: at :: kind_tok :: rest -> (
    match parse_time at with
    | Error e -> fail "%s" e
    | Ok at ->
      let kvs = ref [] and bad = ref None in
      List.iter
        (fun tok ->
          match String.index_opt tok '=' with
          | None -> if !bad = None then bad := Some tok
          | Some i ->
            let k = String.sub tok 0 i in
            let v = String.sub tok (i + 1) (String.length tok - i - 1) in
            kvs := (k, v) :: !kvs)
        rest;
      (match !bad with
      | Some tok -> fail "expected key=value, got %S" tok
      | None ->
        let lookup key = List.assoc_opt key !kvs in
        let known_keys = [ "worker"; "duration"; "factor"; "delay" ] in
        let unknown =
          List.filter (fun (k, _) -> not (List.mem k known_keys)) !kvs
        in
        if unknown <> [] then
          fail "unknown argument %S" (fst (List.hd unknown))
        else
          let int_arg key =
            match lookup key with
            | None -> Error (Printf.sprintf "missing %s=" key)
            | Some v -> (
              match int_of_string_opt v with
              | Some n -> Ok n
              | None -> Error (Printf.sprintf "bad %s=%S" key v))
          in
          let time_arg key =
            match lookup key with
            | None -> Error (Printf.sprintf "missing %s=" key)
            | Some v -> parse_time v
          in
          let ( let* ) r f = match r with Ok v -> f v | Error e -> fail "%s" e in
          let action =
            match Trace.fault_of_name kind_tok with
            | Some Crash ->
              let* worker = int_arg "worker" in
              Ok (Crash { worker })
            | Some Isolate ->
              let* worker = int_arg "worker" in
              Ok (Isolate { worker })
            | Some Recover ->
              let* worker = int_arg "worker" in
              Ok (Recover { worker })
            | Some Hang ->
              let* worker = int_arg "worker" in
              let* duration = time_arg "duration" in
              Ok (Hang { worker; duration })
            | Some Gc_pause ->
              let* worker = int_arg "worker" in
              let* duration = time_arg "duration" in
              Ok (Gc_pause { worker; duration })
            | Some Slowdown ->
              let* worker = int_arg "worker" in
              let* factor = int_arg "factor" in
              let* duration = time_arg "duration" in
              Ok (Slowdown { worker; factor; duration })
            | Some Wst_stall ->
              let* worker = int_arg "worker" in
              let* duration = time_arg "duration" in
              Ok (Wst_stall { worker; duration })
            | Some Map_sync_delay ->
              let* delay = time_arg "delay" in
              let* duration = time_arg "duration" in
              Ok (Map_sync_delay { delay; duration })
            | Some Ebpf_fail ->
              let* duration = time_arg "duration" in
              Ok (Ebpf_fail { duration })
            | Some Probe_loss ->
              let* duration = time_arg "duration" in
              Ok (Probe_loss { duration })
            | Some Accept_overflow ->
              let* worker = int_arg "worker" in
              let* duration = time_arg "duration" in
              Ok (Accept_overflow { worker; duration })
            | Some Splice_desync ->
              let* worker = int_arg "worker" in
              let* duration = time_arg "duration" in
              Ok (Splice_desync { worker; duration })
            | None -> fail "unknown fault kind %S" kind_tok
          in
          (match action with
          | Ok action -> Ok { at; action }
          | Error e -> Error e)))
  | _ -> fail "expected: at <time> <kind> key=value..."

let parse text =
  let lines = String.split_on_char '\n' text in
  let entries = ref [] and errors = ref [] in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      let s = String.trim raw in
      if s <> "" && s.[0] <> '#' then
        match parse_entry ~line s with
        | Ok e -> entries := e :: !entries
        | Error e -> errors := e :: !errors)
    lines;
  match List.rev !errors with
  | [] ->
    Ok (List.stable_sort (fun a b -> compare a.at b.at) (List.rev !entries))
  | e :: _ -> Error e

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error e -> Error e

let lint ~workers plan =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun e ->
      let k = Trace.fault_name (kind e.action) in
      (match worker_of e.action with
      | Some w when w < 0 || w >= workers ->
        add "at %s: %s targets unknown worker %d (device has %d: ids 0..%d)"
          (time_to_string e.at) k w workers (workers - 1)
      | _ -> ());
      (match duration_of e.action with
      | Some d when d <= 0 ->
        add "at %s: %s has non-positive duration" (time_to_string e.at) k
      | _ -> ());
      match e.action with
      | Slowdown { factor; _ } when factor < 2 ->
        add "at %s: %s factor must be at least 2 (got %d)" (time_to_string e.at) k
          factor
      | Map_sync_delay { delay; _ } when delay <= 0 ->
        add "at %s: %s needs a positive delay" (time_to_string e.at) k
      | _ -> ())
    plan;
  match List.rev !problems with [] -> Ok () | ps -> Error ps
