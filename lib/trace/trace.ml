type policy = Lifo | Rr | All | Fifo
type via = Prog | Hash
type column = Avail | Busy | Conn
type io = Accept_io | Read_io
type stage = By_time | By_conn | By_event
type outcome = Select | Fallback | Drop | Redirect
type teardown = By_close | By_reset | By_restart | By_isolate

type fault =
  | Crash | Isolate | Recover | Hang | Gc_pause | Slowdown | Wst_stall | Map_sync_delay
  | Ebpf_fail | Probe_loss | Accept_overflow | Splice_desync

type event =
  | Wq_wake of { policy : policy; queue : int list; woken : int list; steps : int }
  | Epoll_dispatch of { worker : int; events : (int * io * int) list }
  | Sched_filter of { stage : stage; cutoff : float; survivors : int64; live : int }
  | Sched_result of { bitmap : int64; passed : int; total : int; after_time : int }
  | Map_update of { map : string; key : int; value : int64 }
  | Prog_run of { prog : string; flow_hash : int; outcome : outcome; cycles : int }
  | Rp_select of { port : int; flow_hash : int; via : via; slot : int }
  | Rp_drop of { port : int; flow_hash : int }
  | Accept of { worker : int; conn : int }
  | Close of { worker : int; conn : int; reset : bool }
  | Wst_write of { worker : int; column : column; value : int }
  | Probe_timeout of { tenant : int; after : int }
  | Verifier_verdict of {
      prog : string;
      backend : string;
      accepted : bool;
      insns : int;
      visited : int;
      proved : int;
      residual : int;
      reason : string;
    }
  | Fault_inject of { fault : fault; worker : int; arg : int }
  | Fault_clear of { fault : fault; worker : int }
  | Splice_attach of { conn : int; worker : int; key : int }
  | Splice_redirect of { conn : int; worker : int; bytes : int; copied : int }
  | Splice_teardown of { conn : int; worker : int; key : int; reason : teardown }

type record = { seq : int; time : int; event : event }

type sink = { write : record -> unit; close : unit -> unit }

(* ------------------------------------------------------------------ *)
(* Recorder state (tracepoint style: one sink per execution context)    *)

(* One recorder state for the process.  [swap_state] multiplexes a
   cluster's member devices over it: the cluster swaps a member's own
   state (sink, sequence counter, clock) in around its events and the
   previous one back afterwards.  Everything runs on one
   domain, so a plain reference is enough, and the trace-off check on
   the hot paths is two loads: the current state, then its sink. *)

type state = {
  mutable active : sink option;
  mutable seq_counter : int;
  mutable clock : int;
}

let make_state sink = { active = sink; seq_counter = 0; clock = 0 }
let current = ref (make_state None)

let swap_state s =
  let cur = !current in
  current := s;
  cur

let enabled () = match !current.active with None -> false | Some _ -> true
let set_now t = !current.clock <- t

let emit ev =
  let s = !current in
  match s.active with
  | None -> ()
  | Some sink ->
    sink.write { seq = s.seq_counter; time = s.clock; event = ev };
    s.seq_counter <- s.seq_counter + 1

let uninstall () =
  let s = !current in
  match s.active with
  | None -> ()
  | Some sink ->
    s.active <- None;
    sink.close ()

let install sink =
  uninstall ();
  let s = !current in
  s.seq_counter <- 0;
  s.clock <- 0;
  s.active <- Some sink

(* Nested inside another sink's recording, [s] tees off the same stream:
   both sinks see every record, under one contiguous [seq], and the
   outer sink comes back, still open, when [f] returns. *)
let with_sink s f =
  let state = !current in
  match state.active with
  | None ->
    install s;
    Fun.protect ~finally:uninstall f
  | Some outer ->
    let both = { write = (fun r -> s.write r; outer.write r); close = s.close } in
    state.active <- Some both;
    Fun.protect f ~finally:(fun () ->
        match state.active with
        | Some a when a == both ->
          state.active <- Some outer;
          s.close ()
        | _ -> ())

(* ------------------------------------------------------------------ *)
(* Enumerations: one name table each; a value's index is its binary code *)

type 'a enum = ('a * string) array

let policies = [| (Lifo, "lifo"); (Rr, "rr"); (All, "all"); (Fifo, "fifo") |]
let vias = [| (Prog, "prog"); (Hash, "hash") |]
let columns = [| (Avail, "avail"); (Busy, "busy"); (Conn, "conn") |]
let ios = [| (Accept_io, "accept"); (Read_io, "read") |]
let stages = [| (By_time, "time"); (By_conn, "conn"); (By_event, "event") |]

let outcomes =
  [| (Select, "select"); (Fallback, "fallback"); (Drop, "drop"); (Redirect, "redirect") |]

let teardowns =
  [| (By_close, "close"); (By_reset, "reset"); (By_restart, "restart"); (By_isolate, "isolate") |]

let faults =
  [|
    (Crash, "crash"); (Isolate, "isolate"); (Recover, "recover"); (Hang, "hang");
    (Gc_pause, "gc_pause"); (Slowdown, "slowdown"); (Wst_stall, "wst_stall");
    (Map_sync_delay, "map_sync_delay"); (Ebpf_fail, "ebpf_fail");
    (Probe_loss, "probe_loss"); (Accept_overflow, "accept_overflow");
    (Splice_desync, "splice_desync");
  |]

(* Constant constructors are immediates, so [==] is exact here.  A
   top-level loop, not a local closure: the binary sink's hot path
   must not allocate. *)
let rec index (e : _ enum) v i = if fst e.(i) == v then i else index e v (i + 1)
let code e v = index e v 0

let name e v = snd e.(code e v)

let of_name (e : _ enum) s =
  Array.find_map (fun (v, n) -> if String.equal n s then Some v else None) e

let stage_name = name stages
let fault_name = name faults
let fault_of_name = of_name faults

(* ------------------------------------------------------------------ *)
(* The schema                                                           *)

(* An encoder: one method per field kind, threading the encoder's own
   state ['s].  Text, JSON and binary are three [out] values; each
   field of every event goes through exactly one method call. *)
type 's out = {
  ev : 's -> int -> string -> unit;  (** binary tag, event name *)
  int : 's -> string -> int -> unit;
  hash : 's -> string -> int -> unit;  (** hex in text, decimal in JSON *)
  bits : 's -> string -> int64 -> unit;
  cutoff : 's -> string -> float -> unit;
  bool : 's -> string -> bool -> unit;
  str : 's -> string -> string -> unit;  (** free string, interned *)
  enum : 'a. 's -> string -> 'a enum -> 'a -> unit;
  ints : 's -> string -> int list -> unit;
  batch : 's -> string -> (int * io * int) list -> unit;
  ratio : 's -> string -> string -> int -> int -> unit;
      (** [passed=P/T] in text, two keys in JSON *)
}

(* Each event, once: its tag, its name and its fields in canonical
   order.  The binary decoder below reads the fields back in this
   order. *)
let describe o s = function
  | Wq_wake { policy; queue; woken; steps } ->
    o.ev s 1 "wq.wake"; o.enum s "policy" policies policy; o.ints s "queue" queue;
    o.ints s "woken" woken; o.int s "steps" steps
  | Epoll_dispatch { worker; events } ->
    o.ev s 2 "epoll.dispatch"; o.int s "worker" worker; o.batch s "events" events
  | Sched_filter { stage; cutoff; survivors; live } ->
    o.ev s 3 "sched.filter"; o.enum s "stage" stages stage; o.cutoff s "cutoff" cutoff;
    o.bits s "survivors" survivors; o.int s "live" live
  | Sched_result { bitmap; passed; total; after_time } ->
    o.ev s 4 "sched.result"; o.bits s "bitmap" bitmap;
    o.ratio s "passed" "total" passed total; o.int s "after_time" after_time
  | Map_update { map; key; value } ->
    o.ev s 5 "ebpf.map_update"; o.str s "map" map; o.int s "key" key;
    o.bits s "value" value
  | Prog_run { prog; flow_hash; outcome; cycles } ->
    o.ev s 6 "ebpf.run"; o.str s "prog" prog; o.hash s "hash" flow_hash;
    o.enum s "outcome" outcomes outcome; o.int s "cycles" cycles
  | Rp_select { port; flow_hash; via; slot } ->
    o.ev s 7 "reuseport.select"; o.int s "port" port; o.hash s "hash" flow_hash;
    o.enum s "via" vias via; o.int s "slot" slot
  | Rp_drop { port; flow_hash } ->
    o.ev s 8 "reuseport.drop"; o.int s "port" port; o.hash s "hash" flow_hash
  | Accept { worker; conn } ->
    o.ev s 9 "worker.accept"; o.int s "worker" worker; o.int s "conn" conn
  | Close { worker; conn; reset } ->
    o.ev s 10 "worker.close"; o.int s "worker" worker; o.int s "conn" conn;
    o.bool s "reset" reset
  | Wst_write { worker; column; value } ->
    o.ev s 11 "wst.write"; o.int s "worker" worker; o.enum s "col" columns column;
    o.int s "value" value
  | Probe_timeout { tenant; after } ->
    o.ev s 12 "probe.timeout"; o.int s "tenant" tenant; o.int s "after" after
  | Verifier_verdict { prog; backend; accepted; insns; visited; proved; residual; reason } ->
    o.ev s 13 "verifier.verdict"; o.str s "prog" prog; o.str s "backend" backend;
    o.bool s "accepted" accepted; o.int s "insns" insns; o.int s "visited" visited;
    o.int s "proved" proved; o.int s "residual" residual; o.str s "reason" reason
  | Fault_inject { fault; worker; arg } ->
    o.ev s 14 "fault.inject"; o.enum s "kind" faults fault; o.int s "worker" worker;
    o.int s "arg" arg
  | Fault_clear { fault; worker } ->
    o.ev s 15 "fault.clear"; o.enum s "kind" faults fault; o.int s "worker" worker
  | Splice_attach { conn; worker; key } ->
    o.ev s 16 "splice.attach"; o.int s "conn" conn; o.int s "worker" worker;
    o.int s "key" key
  | Splice_redirect { conn; worker; bytes; copied } ->
    o.ev s 17 "splice.redirect"; o.int s "conn" conn; o.int s "worker" worker;
    o.int s "bytes" bytes; o.int s "copied" copied
  | Splice_teardown { conn; worker; key; reason } ->
    o.ev s 18 "splice.teardown"; o.int s "conn" conn; o.int s "worker" worker;
    o.int s "key" key; o.enum s "reason" teardowns reason

(* ------------------------------------------------------------------ *)
(* Text and JSON                                                        *)

(* [a,b,...] through [f] *)
let list f b l =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      f b x)
    l;
  Buffer.add_char b ']'

let ints = list (fun b -> Printf.bprintf b "%d")

(* The golden-file form: [name key=value ...]. *)
let text =
  {
    ev = (fun b _ n -> Buffer.add_string b n);
    int = (fun b k v -> Printf.bprintf b " %s=%d" k v);
    hash = (fun b k v -> Printf.bprintf b " %s=0x%x" k v);
    bits = (fun b k v -> Printf.bprintf b " %s=0x%Lx" k v);
    cutoff = (fun b k v -> Printf.bprintf b " %s=%.2f" k v);
    bool = (fun b k v -> Printf.bprintf b " %s=%b" k v);
    str = (fun b k v -> Printf.bprintf b " %s=%s" k (if v = "" then "-" else v));
    enum = (fun b k e v -> Printf.bprintf b " %s=%s" k (name e v));
    ints = (fun b k l -> Printf.bprintf b " %s=%a" k ints l);
    batch =
      (fun b k l ->
        Printf.bprintf b " %s=%a" k
          (list (fun b (fd, kind, units) ->
               Printf.bprintf b "%d:%s*%d" fd (name ios kind) units))
          l);
    ratio = (fun b k _ p t -> Printf.bprintf b " %s=%d/%d" k p t);
  }

(* RFC 8259 string escaping: backslash and double-quote get
   two-character escapes, control characters the conventional short
   forms or \u00XX.  Event strings are normally tame identifiers, but
   verifier reasons are arbitrary — an unescaped backslash or newline
   would corrupt the whole JSONL line. *)
let add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* Keys, event names and enum names are plain identifiers: only free
   strings need escaping. *)
let json =
  {
    ev = (fun b _ n -> Printf.bprintf b ",\"ev\":\"%s\"" n);
    int = (fun b k v -> Printf.bprintf b ",\"%s\":%d" k v);
    hash = (fun b k v -> Printf.bprintf b ",\"%s\":%d" k v);
    bits = (fun b k v -> Printf.bprintf b ",\"%s\":\"0x%Lx\"" k v);
    cutoff = (fun b k v -> Printf.bprintf b ",\"%s\":%.2f" k v);
    bool = (fun b k v -> Printf.bprintf b ",\"%s\":%b" k v);
    str = (fun b k v -> Printf.bprintf b ",\"%s\":%a" k add_json_string v);
    enum = (fun b k e v -> Printf.bprintf b ",\"%s\":\"%s\"" k (name e v));
    ints = (fun b k l -> Printf.bprintf b ",\"%s\":%a" k ints l);
    batch =
      (fun b k l ->
        Printf.bprintf b ",\"%s\":%a" k
          (list (fun b (fd, kind, units) ->
               Printf.bprintf b "{\"fd\":%d,\"kind\":\"%s\",\"units\":%d}" fd
                 (name ios kind) units))
          l);
    ratio = (fun b k1 k2 p t -> Printf.bprintf b ",\"%s\":%d,\"%s\":%d" k1 p k2 t);
  }

let add_text b r =
  Printf.bprintf b "%10d " r.time;
  describe text b r.event

let add_json b r =
  Printf.bprintf b "{\"seq\":%d,\"t\":%d" r.seq r.time;
  describe json b r.event;
  Buffer.add_char b '}'

let to_string add x =
  let b = Buffer.create 128 in
  add b x;
  Buffer.contents b

let render_event = to_string (describe text)
let render = to_string add_text
let json_of_record = to_string add_json
let json_string = to_string add_json_string

(* ------------------------------------------------------------------ *)
(* Sinks                                                                *)

let line_sink add oc =
  let b = Buffer.create 256 in
  let write r = Buffer.clear b; add b r; Buffer.add_char b '\n'; Buffer.output_buffer oc b in
  { write; close = (fun () -> flush oc) }

let jsonl_sink = line_sink add_json
let text_sink = line_sink add_text

(* ------------------------------------------------------------------ *)
(* Compact binary trace format                                          *)

module Binary = struct
  (* Append-only little-endian 64-bit-word stream: an 8-byte magic,
     then framed records

         word0 = event tag (bits 0..7) | payload word count (bits 8..)
         word1 = seq   (tag 0: intern id)
         word2 = time  (tag 0: string byte length)
         payload words, one per field in [describe] order (a list is
         its length, then its elements)

     Enums are their code (index in the name table), bools 0/1,
     floats their IEEE bits.  Strings are interned: the first use of
     each distinct string emits a tag-0 definition record (zero-padded
     raw bytes) ahead of the event that uses it, and events refer to
     strings by id.  Fixed-width framing keeps the stream mmap-able and
     seekable without parsing: any reader can skip a record from its
     header alone. *)

  let magic = "HTRCBIN2"

  exception Corrupt of string

  let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

  (* ---------------- writer ---------------- *)

  (* Records are framed into [buf] and handed to the channel in
     chunks of [drain_at] bytes.  A record's header is written after
     its payload, once the word count is known. *)
  type writer = {
    oc : out_channel;
    mutable buf : Bytes.t;
    mutable pos : int;  (* first free byte *)
    mutable start : int;  (* current record's header *)
    mutable tag : int;
    interned : (string, int) Hashtbl.t;
  }

  let drain_at = 65536

  let ensure w n =
    if w.pos + n > Bytes.length w.buf then begin
      let grown = Bytes.create (2 * (w.pos + n)) in
      Bytes.blit w.buf 0 grown 0 w.pos;
      w.buf <- grown
    end

  let put w v =
    ensure w 8;
    Bytes.set_int64_le w.buf w.pos (Int64.of_int v);
    w.pos <- w.pos + 8

  let put64 w v =
    ensure w 8;
    Bytes.set_int64_le w.buf w.pos v;
    w.pos <- w.pos + 8

  (* A first-seen string's definition must precede the record naming
     it: shift the partly written record up and define the string in
     its place. *)
  let intern w s =
    match Hashtbl.find w.interned s with
    | id -> id
    | exception Not_found ->
      let id = Hashtbl.length w.interned in
      Hashtbl.add w.interned s id;
      let len = String.length s in
      let nwords = (len + 7) / 8 in
      let size = (3 + nwords) * 8 in
      ensure w size;
      let at = w.start in
      Bytes.blit w.buf at w.buf (at + size) (w.pos - at);
      Bytes.set_int64_le w.buf at (Int64.of_int (nwords lsl 8));
      Bytes.set_int64_le w.buf (at + 8) (Int64.of_int id);
      Bytes.set_int64_le w.buf (at + 16) (Int64.of_int len);
      Bytes.fill w.buf (at + 24) (nwords * 8) '\000';
      Bytes.blit_string s 0 w.buf (at + 24) len;
      w.start <- at + size;
      w.pos <- w.pos + size;
      id

  (* Recursion, not [List.iter] with a closure: nothing allocates. *)
  let rec put_ints w = function [] -> () | x :: l -> put w x; put_ints w l

  let rec put_batch w = function
    | [] -> ()
    | (fd, kind, units) :: l -> put w fd; put w (code ios kind); put w units; put_batch w l

  let out =
    {
      ev = (fun w tag _ -> w.tag <- tag);
      int = (fun w _ v -> put w v);
      hash = (fun w _ v -> put w v);
      bits = (fun w _ v -> put64 w v);
      cutoff = (fun w _ v -> put64 w (Int64.bits_of_float v));
      bool = (fun w _ v -> put w (Bool.to_int v));
      str = (fun w _ v -> put w (intern w v));
      enum = (fun w _ e v -> put w (code e v));
      ints = (fun w _ l -> put w (List.length l); put_ints w l);
      batch = (fun w _ l -> put w (List.length l); put_batch w l);
      ratio = (fun w _ _ p t -> put w p; put w t);
    }

  let drain w =
    output w.oc w.buf 0 w.pos;
    w.pos <- 0

  let write w { seq; time; event } =
    ensure w 24;
    w.start <- w.pos;
    Bytes.set_int64_le w.buf (w.pos + 8) (Int64.of_int seq);
    Bytes.set_int64_le w.buf (w.pos + 16) (Int64.of_int time);
    w.pos <- w.pos + 24;
    describe out w event;
    let nwords = (w.pos - w.start - 24) / 8 in
    Bytes.set_int64_le w.buf w.start (Int64.of_int (w.tag lor (nwords lsl 8)));
    if w.pos >= drain_at then drain w

  let sink oc =
    output_string oc magic;
    let buf = Bytes.create (2 * drain_at) in
    let w = { oc; buf; pos = 0; start = 0; tag = 0; interned = Hashtbl.create 64 } in
    { write = write w; close = (fun () -> drain w; flush oc) }

  (* ---------------- decoder ---------------- *)

  (* A read cursor over one record's payload.  Every read is bounds
     checked, and the record must be consumed exactly. *)
  type cursor = {
    mutable payload : Bytes.t;
    mutable nwords : int;
    mutable i : int;
    strings : (int, string) Hashtbl.t;
  }

  let word c =
    if c.i >= c.nwords then corrupt "record payload overrun (%d words)" c.nwords;
    let v = Bytes.get_int64_le c.payload (c.i * 8) in
    c.i <- c.i + 1;
    v

  let int c = Int64.to_int (word c)
  let float c = Int64.float_of_bits (word c)
  let bool c = match int c with 0 -> false | 1 -> true | n -> corrupt "bad bool word %d" n

  let str c =
    let id = int c in
    match Hashtbl.find_opt c.strings id with
    | Some s -> s
    | None -> corrupt "undefined string id %d" id

  let enum (e : _ enum) c =
    let k = int c in
    if k < 0 || k >= Array.length e then corrupt "bad enum code %d" k;
    fst e.(k)

  let list ~width f c =
    let n = int c in
    if n < 0 || n > (c.nwords - c.i) / width then corrupt "bad list length %d" n;
    List.init n (fun _ -> f c)

  let io_event c =
    let fd = int c in
    let kind = enum ios c in
    (fd, kind, int c)

  (* One case per tag, reading fields in [describe] order.  Each [let]
     fixes the read order; a record literal holds at most one read. *)
  let event c = function
    | 1 ->
      let policy = enum policies c in
      let queue = list ~width:1 int c in let woken = list ~width:1 int c in
      Wq_wake { policy; queue; woken; steps = int c }
    | 2 ->
      let worker = int c in
      Epoll_dispatch { worker; events = list ~width:3 io_event c }
    | 3 ->
      let stage = enum stages c in let cutoff = float c in let survivors = word c in
      Sched_filter { stage; cutoff; survivors; live = int c }
    | 4 ->
      let bitmap = word c in let passed = int c in let total = int c in
      Sched_result { bitmap; passed; total; after_time = int c }
    | 5 ->
      let map = str c in let key = int c in
      Map_update { map; key; value = word c }
    | 6 ->
      let prog = str c in let flow_hash = int c in let outcome = enum outcomes c in
      Prog_run { prog; flow_hash; outcome; cycles = int c }
    | 7 ->
      let port = int c in let flow_hash = int c in let via = enum vias c in
      Rp_select { port; flow_hash; via; slot = int c }
    | 8 ->
      let port = int c in
      Rp_drop { port; flow_hash = int c }
    | 9 ->
      let worker = int c in
      Accept { worker; conn = int c }
    | 10 ->
      let worker = int c in let conn = int c in
      Close { worker; conn; reset = bool c }
    | 11 ->
      let worker = int c in let column = enum columns c in
      Wst_write { worker; column; value = int c }
    | 12 ->
      let tenant = int c in
      Probe_timeout { tenant; after = int c }
    | 13 ->
      let prog = str c in let backend = str c in let accepted = bool c in
      let insns = int c in let visited = int c in let proved = int c in
      let residual = int c in
      Verifier_verdict
        { prog; backend; accepted; insns; visited; proved; residual; reason = str c }
    | 14 ->
      let fault = enum faults c in let worker = int c in
      Fault_inject { fault; worker; arg = int c }
    | 15 ->
      let fault = enum faults c in
      Fault_clear { fault; worker = int c }
    | 16 ->
      let conn = int c in let worker = int c in
      Splice_attach { conn; worker; key = int c }
    | 17 ->
      let conn = int c in let worker = int c in let bytes = int c in
      Splice_redirect { conn; worker; bytes; copied = int c }
    | 18 ->
      let conn = int c in let worker = int c in let key = int c in
      Splice_teardown { conn; worker; key; reason = enum teardowns c }
    | t -> corrupt "unknown record tag %d" t

  (* The payload buffer grows only as bytes arrive, so a corrupt word
     count meets end of file before it can force a huge allocation. *)
  let read_payload c ic len =
    let rec go off =
      if off < len then begin
        let upto = min len (max 4096 (2 * off)) in
        if Bytes.length c.payload < upto then
          c.payload <- Bytes.extend c.payload 0 (upto - Bytes.length c.payload);
        really_input ic c.payload off (upto - off);
        go upto
      end
    in
    go 0

  let iter_channel ic f =
    let hdr = Bytes.create 24 in
    (try really_input ic hdr 0 8
     with End_of_file -> corrupt "truncated file: missing magic");
    if Bytes.sub_string hdr 0 8 <> magic then
      corrupt "bad magic %S (want %S)" (Bytes.sub_string hdr 0 8) magic;
    let c = { payload = Bytes.create 512; nwords = 0; i = 0; strings = Hashtbl.create 64 } in
    let finished = ref false in
    while not !finished do
      (* A record boundary is the only place clean EOF is legal. *)
      let n = input ic hdr 0 24 in
      if n = 0 then finished := true
      else begin
        (try really_input ic hdr n (24 - n)
         with End_of_file -> corrupt "truncated record header");
        let w0 = Int64.to_int (Bytes.get_int64_le hdr 0) in
        let tag = w0 land 0xff in
        let nwords = w0 lsr 8 in
        if nwords < 0 || nwords > 0xFFFFFF then
          corrupt "implausible record size (%d words)" nwords;
        let w1 = Int64.to_int (Bytes.get_int64_le hdr 8) in
        let w2 = Int64.to_int (Bytes.get_int64_le hdr 16) in
        (try read_payload c ic (nwords * 8)
         with End_of_file -> corrupt "truncated record payload (tag %d)" tag);
        c.nwords <- nwords;
        c.i <- 0;
        if tag = 0 then begin
          if w2 < 0 || (w2 + 7) / 8 <> nwords then
            corrupt "string def: %d bytes in %d words" w2 nwords;
          Hashtbl.replace c.strings w1 (Bytes.sub_string c.payload 0 w2)
        end
        else begin
          let event = event c tag in
          if c.i <> nwords then corrupt "tag %d: %d payload words, %d read" tag nwords c.i;
          f { seq = w1; time = w2; event }
        end
      end
    done

  let read_channel ic =
    let acc = ref [] in
    iter_channel ic (fun r -> acc := r :: !acc);
    List.rev !acc

  let read_file path =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_channel ic)
end

let file_sink path =
  let oc = open_out_bin path in
  let s = if Filename.check_suffix path ".bin" then Binary.sink oc else jsonl_sink oc in
  { s with close = (fun () -> s.close (); close_out oc) }
