(* Tests for the lb library: HTTP codec, router, request/conn model,
   backend pools, and full worker/device integration under each
   dispatch mode, including failure injection. *)

let check = Alcotest.check
let ms = Engine.Sim_time.ms
let us = Engine.Sim_time.us

(* ------------------------------------------------------------------ *)
(* Http                                                                 *)

let test_http_parse_simple () =
  let raw = "GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n" in
  match Lb.Http.parse_request raw with
  | Ok (req, consumed) ->
    check Alcotest.string "method" "GET" (Lb.Http.meth_to_string req.Lb.Http.meth);
    check Alcotest.string "target" "/index.html" req.Lb.Http.target;
    check Alcotest.string "version" "HTTP/1.1" req.Lb.Http.version;
    check Alcotest.(option string) "host" (Some "example.com") (Lb.Http.host req);
    check Alcotest.int "consumed all" (String.length raw) consumed
  | Error _ -> Alcotest.fail "parse failed"

let test_http_parse_body () =
  let raw = "POST /api HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello" in
  match Lb.Http.parse_request raw with
  | Ok (req, consumed) ->
    check Alcotest.string "body" "hello" req.Lb.Http.body;
    check Alcotest.int "consumed" (String.length raw) consumed
  | Error _ -> Alcotest.fail "parse failed"

let test_http_truncated () =
  List.iter
    (fun raw ->
      match Lb.Http.parse_request raw with
      | Error Lb.Http.Truncated -> ()
      | _ -> Alcotest.fail ("should be truncated: " ^ String.escaped raw))
    [
      "GET / HTTP/1.1";
      "GET / HTTP/1.1\r\nHost: a";
      "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
    ]

let test_http_bad_inputs () =
  (match Lb.Http.parse_request "FROB / HTTP/1.1\r\n\r\n" with
  | Error (Lb.Http.Unsupported_method "FROB") -> ()
  | _ -> Alcotest.fail "should reject method");
  (match Lb.Http.parse_request "GARBAGE\r\n\r\n" with
  | Error (Lb.Http.Bad_request_line _) -> ()
  | _ -> Alcotest.fail "should reject request line");
  match Lb.Http.parse_request "GET / HTTP/1.1\r\nBad header line\r\n\r\n" with
  | Error (Lb.Http.Bad_header _) -> ()
  | _ -> Alcotest.fail "should reject header"

let test_http_header_case_insensitive () =
  let raw = "GET / HTTP/1.1\r\nhOsT: example.com\r\n\r\n" in
  match Lb.Http.parse_request raw with
  | Ok (req, _) ->
    check Alcotest.(option string) "lookup mixed case" (Some "example.com")
      (Lb.Http.host req)
  | Error _ -> Alcotest.fail "parse failed"

let test_http_path_query () =
  let raw = "GET /a/b?q=1&r=2 HTTP/1.1\r\n\r\n" in
  match Lb.Http.parse_request raw with
  | Ok (req, _) -> check Alcotest.string "path" "/a/b" (Lb.Http.path req)
  | Error _ -> Alcotest.fail "parse failed"

let test_http_websocket_upgrade () =
  let raw =
    "GET /chat HTTP/1.1\r\nConnection: keep-alive, Upgrade\r\nUpgrade: websocket\r\n\r\n"
  in
  match Lb.Http.parse_request raw with
  | Ok (req, _) ->
    check Alcotest.(list (pair string string)) "upgrade headers, names lower-cased"
      [ ("connection", "keep-alive, Upgrade"); ("upgrade", "websocket") ]
      req.Lb.Http.headers
  | Error _ -> Alcotest.fail "parse failed"

(* A request's wire form, as a client writes it. *)
let serialize_request (req : Lb.Http.request) =
  Printf.sprintf "%s %s %s\r\n%s\r\n%s" (Lb.Http.meth_to_string req.meth) req.target
    req.version
    (String.concat "" (List.map (fun (n, v) -> n ^ ": " ^ v ^ "\r\n") req.headers))
    req.body

let test_http_request_roundtrip () =
  let raw = "PUT /x HTTP/1.1\r\nhost: h\r\ncontent-length: 3\r\n\r\nabc" in
  match Lb.Http.parse_request raw with
  | Ok (req, _) ->
    check Alcotest.string "roundtrip" raw (serialize_request req)
  | Error _ -> Alcotest.fail "parse failed"

(* Property: any serialized request parses back to itself. *)
let gen_request =
  QCheck.Gen.(
    let meth = oneofl [ Lb.Http.GET; POST; PUT; DELETE ] in
    let path =
      map (fun parts -> "/" ^ String.concat "/" parts)
        (list_size (int_range 0 3) (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)))
    in
    let body = string_size ~gen:(char_range 'a' 'z') (int_range 0 32) in
    map3
      (fun meth path body ->
        {
          Lb.Http.meth;
          target = path;
          version = "HTTP/1.1";
          headers = [ ("content-length", string_of_int (String.length body)) ];
          body;
        })
      meth path body)

let prop_http_roundtrip =
  QCheck.Test.make ~name:"http serialize/parse roundtrip" ~count:200
    (QCheck.make gen_request) (fun req ->
      match Lb.Http.parse_request (serialize_request req) with
      | Ok (req', _) ->
        req'.Lb.Http.meth = req.Lb.Http.meth
        && String.equal req'.Lb.Http.target req.Lb.Http.target
        && String.equal req'.Lb.Http.body req.Lb.Http.body
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Router                                                               *)

(* Route a GET for [path], with a Host header when [host] is given. *)
let route t ~host ~path =
  Lb.Router.route_request t
    {
      Lb.Http.meth = GET;
      target = path;
      version = "HTTP/1.1";
      headers = (match host with Some h -> [ ("host", h) ] | None -> []);
      body = "";
    }

let rule ?host path backend_group = { Lb.Router.matcher = { host; path }; backend_group }

let test_router_specificity () =
  let r =
    Lb.Router.create
      [
        rule `Any "catchall";
        rule (`Prefix "/api/") "api";
        rule (`Exact "/api/v1/users") "users";
        rule (`Prefix "/api/v1/") "v1";
      ]
  in
  check Alcotest.(option string) "exact wins" (Some "users")
    (route r ~host:None ~path:"/api/v1/users");
  check Alcotest.(option string) "longest prefix" (Some "v1")
    (route r ~host:None ~path:"/api/v1/items");
  check Alcotest.(option string) "short prefix" (Some "api")
    (route r ~host:None ~path:"/api/other");
  check Alcotest.(option string) "catchall" (Some "catchall")
    (route r ~host:None ~path:"/elsewhere")

let test_router_host () =
  let r =
    Lb.Router.create
      [ rule ~host:"a.example" (`Prefix "/") "tenant-a"; rule (`Prefix "/") "any" ]
  in
  check Alcotest.(option string) "host match" (Some "tenant-a")
    (route r ~host:(Some "a.example") ~path:"/x");
  check Alcotest.(option string) "other host" (Some "any")
    (route r ~host:(Some "b.example") ~path:"/x");
  check Alcotest.(option string) "no host" (Some "any")
    (route r ~host:None ~path:"/x")

let test_router_no_match () =
  let r = Lb.Router.create [ rule (`Exact "/only") "x" ] in
  check Alcotest.(option string) "miss" None (route r ~host:None ~path:"/other")

let test_router_request_and_cost () =
  let r = Lb.Router.create [ rule (`Prefix "/") "all" ] in
  (match Lb.Http.parse_request "GET /p HTTP/1.1\r\nHost: h\r\n\r\n" with
  | Ok (req, _) ->
    check Alcotest.(option string) "routes request" (Some "all")
      (Lb.Router.route_request r req)
  | Error _ -> Alcotest.fail "parse failed");
  let small = Lb.Router.matching_cost r in
  let big =
    Lb.Router.matching_cost
      (Lb.Router.create (List.init 100 (fun i -> rule (`Exact (string_of_int i)) "g")))
  in
  check Alcotest.bool "cost grows with rules" true (big > small)

(* ------------------------------------------------------------------ *)
(* Request / Conn                                                       *)

let test_request_validation () =
  Alcotest.check_raises "negative size" (Invalid_argument "Request.make: negative size")
    (fun () ->
      ignore
        (Lb.Request.make ~id:1 ~op:Lb.Request.Plain_proxy ~size:(-1) ~cost:1 ~tenant_id:0));
  let close = Lb.Request.close_marker ~id:2 ~tenant_id:0 in
  check Alcotest.bool "is close" true (Lb.Request.is_close close);
  let req = Lb.Request.make ~id:3 ~op:Lb.Request.Compress ~size:10 ~cost:5 ~tenant_id:0 in
  check Alcotest.bool "not close" false (Lb.Request.is_close req)

let test_request_default_costs () =
  (* handshake-class ops cost more than plain proxying *)
  let plain = Lb.Request.default_cost Lb.Request.Plain_proxy ~size:1000 in
  let ssl = Lb.Request.default_cost Lb.Request.Ssl_handshake ~size:1000 in
  let compress = Lb.Request.default_cost Lb.Request.Compress ~size:1000 in
  check Alcotest.bool "ssl > plain" true (ssl > plain);
  check Alcotest.bool "compress > plain" true (compress > plain);
  (* size-proportional *)
  check Alcotest.bool "bigger costs more" true
    (Lb.Request.default_cost Lb.Request.Compress ~size:100_000
    > Lb.Request.default_cost Lb.Request.Compress ~size:100)

let dummy_tuple = { Netsim.Addr.src_ip = 1; src_port = 2; dst_ip = 3; dst_port = 4 }

let test_conn_lifecycle () =
  let conn =
    Lb.Conn.make ~id:1 ~fd:10 ~tuple:dummy_tuple ~flow_hash:0 ~tenant_id:0 ~worker_id:0
  in
  check Alcotest.bool "open" true (Lb.Conn.is_open conn);
  let req = Lb.Request.make ~id:1 ~op:Lb.Request.Plain_proxy ~size:1 ~cost:1 ~tenant_id:0 in
  check Alcotest.bool "delivered" true (Lb.Conn.deliver conn req ~now:(ms 7));
  check Alcotest.int "arrival stamped" (ms 7) req.Lb.Request.arrival;
  check Alcotest.int "one queued" 1 (Lb.Conn.queued conn);
  check Alcotest.int "same request" 1 (Lb.Conn.pop conn).Lb.Request.id;
  check Alcotest.int "inbox drained" 0 (Lb.Conn.queued conn);
  conn.Lb.Conn.state <- Lb.Conn.Closed;
  check Alcotest.bool "closed rejects" false (Lb.Conn.deliver conn req ~now:(ms 8))

(* ------------------------------------------------------------------ *)
(* Backend                                                              *)

let test_backend_round_robin () =
  let b = Lb.Backend.create ~servers:3 ~workers:1 ~mode:Lb.Backend.Shared () in
  for _ = 1 to 6 do
    ignore (Lb.Backend.forward_and_release b ~worker:0)
  done;
  check Alcotest.(array int) "even rotation" [| 2; 2; 2 |]
    (Lb.Backend.requests_per_server b)

let test_backend_synced_restart () =
  let b = Lb.Backend.create ~servers:4 ~workers:4 ~mode:Lb.Backend.Shared () in
  Lb.Backend.update_server_list b ~randomize:None ();
  (* every worker sends exactly one request: all hit server 0 *)
  for w = 0 to 3 do
    ignore (Lb.Backend.forward_and_release b ~worker:w)
  done;
  check Alcotest.(array int) "head hammered" [| 4; 0; 0; 0 |]
    (Lb.Backend.requests_per_server b)

let test_backend_randomized_restart () =
  let rng = Engine.Rng.create 5 in
  let b = Lb.Backend.create ~servers:4 ~workers:8 ~mode:Lb.Backend.Shared () in
  Lb.Backend.update_server_list b ~randomize:(Some rng) ();
  for w = 0 to 7 do
    ignore (Lb.Backend.forward_and_release b ~worker:w)
  done;
  let counts = Lb.Backend.requests_per_server b in
  check Alcotest.bool "spread beyond head" true (counts.(0) < 8)

let test_backend_pool_modes () =
  (* shared pool: 1 handshake per server; per-worker: per worker *)
  let shared = Lb.Backend.create ~servers:2 ~workers:4 ~mode:Lb.Backend.Shared () in
  for i = 0 to 7 do
    ignore (Lb.Backend.forward_and_release shared ~worker:(i mod 4))
  done;
  check Alcotest.int "shared: 2 handshakes" 2 (Lb.Backend.handshakes shared);
  let per = Lb.Backend.create ~servers:2 ~workers:4 ~mode:Lb.Backend.Per_worker () in
  for i = 0 to 7 do
    ignore (Lb.Backend.forward_and_release per ~worker:(i mod 4))
  done;
  check Alcotest.int "per-worker: 8 handshakes" 8 (Lb.Backend.handshakes per)

let test_backend_resize () =
  let b = Lb.Backend.create ~servers:2 ~workers:1 ~mode:Lb.Backend.Shared () in
  Lb.Backend.update_server_list b ~servers:5 ~randomize:None ();
  check Alcotest.int "resized" 5 (Array.length (Lb.Backend.requests_per_server b));
  for _ = 1 to 5 do
    ignore (Lb.Backend.forward_and_release b ~worker:0)
  done;
  check Alcotest.(array int) "all servers hit" [| 1; 1; 1; 1; 1 |]
    (Lb.Backend.requests_per_server b)

(* ------------------------------------------------------------------ *)
(* Device integration                                                   *)

let make_device mode =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create 99 in
  let tenants = Netsim.Tenant.population ~n:4 ~base_dport:20000 in
  let device = Lb.Device.create ~sim ~rng ~mode ~workers:4 ~tenants () in
  Lb.Device.start device;
  (device, sim)

let simple_events ?(on_established = fun _ -> ()) ?(on_done = fun _ _ -> ())
    ?(on_closed = fun _ -> ()) ?(on_reset = fun _ -> ()) () =
  {
    Lb.Device.established = on_established;
    request_done = on_done;
    closed = on_closed;
    reset = on_reset;
    dispatch_failed = (fun () -> ());
  }

let run_request_through mode =
  let device, sim = make_device mode in
  let done_latency = ref None in
  let events =
    simple_events
      ~on_established:(fun conn ->
        let req =
          Lb.Request.make ~id:1 ~op:Lb.Request.Plain_proxy ~size:100
            ~cost:(us 200) ~tenant_id:conn.Lb.Conn.tenant_id
        in
        ignore (Lb.Device.send device conn req))
      ~on_done:(fun conn _ ->
        done_latency := Some (Engine.Sim.now sim);
        Lb.Device.close_conn device conn)
      ()
  in
  Lb.Device.connect device ~tenant:0 ~events;
  Engine.Sim.run_until sim ~limit:(ms 100);
  !done_latency

let test_device_end_to_end_all_modes () =
  List.iter
    (fun mode ->
      match run_request_through mode with
      | Some t ->
        check Alcotest.bool
          (Lb.Device.mode_name mode ^ " completes fast")
          true
          (t > 0 && t < ms 10)
      | None -> Alcotest.fail (Lb.Device.mode_name mode ^ ": request did not complete"))
    [
      Lb.Device.Exclusive;
      Lb.Device.Epoll_rr;
      Lb.Device.Wake_all;
      Lb.Device.Io_uring_fifo;
      Lb.Device.Reuseport;
      Lb.Device.Hermes Hermes.Config.default;
    ]

let open_n_conns device sim n ~hold =
  for i = 0 to n - 1 do
    ignore
      (Engine.Sim.schedule_after sim ~delay:(ms (2 * i)) (fun () ->
           let events =
             if hold then simple_events ()
             else
               simple_events
                 ~on_established:(fun conn -> Lb.Device.close_conn device conn)
                 ()
           in
           Lb.Device.connect device ~tenant:(i mod 4) ~events))
  done

let test_device_lifo_concentration () =
  let device, sim = make_device Lb.Device.Exclusive in
  open_n_conns device sim 100 ~hold:true;
  Engine.Sim.run_until sim ~limit:(ms 300);
  let acc = Lb.Device.accepted_per_worker device in
  (* the head worker (highest id, most recently registered) takes
     almost everything at this light load *)
  check Alcotest.bool "worker 3 dominates" true (acc.(3) >= 95)

let test_device_fifo_concentration () =
  let device, sim = make_device Lb.Device.Io_uring_fifo in
  open_n_conns device sim 100 ~hold:true;
  Engine.Sim.run_until sim ~limit:(ms 300);
  let acc = Lb.Device.accepted_per_worker device in
  (* FIFO concentrates on the oldest waiter: worker 0 *)
  check Alcotest.bool "worker 0 dominates" true (acc.(0) >= 95)

let test_device_rr_balances () =
  let device, sim = make_device Lb.Device.Epoll_rr in
  open_n_conns device sim 100 ~hold:true;
  Engine.Sim.run_until sim ~limit:(ms 300);
  let acc = Array.map float_of_int (Lb.Device.accepted_per_worker device) in
  check Alcotest.bool "balanced" true (Stats.Summary.stddev acc < 5.0)

let test_device_hermes_balances () =
  let device, sim = make_device (Lb.Device.Hermes Hermes.Config.default) in
  open_n_conns device sim 100 ~hold:true;
  Engine.Sim.run_until sim ~limit:(ms 300);
  let acc = Array.map float_of_int (Lb.Device.accepted_per_worker device) in
  check Alcotest.bool "no worker dominates" true
    (snd (Stats.Summary.min_max acc) < 60.0)

let test_device_wake_all_spurious () =
  let device, sim = make_device Lb.Device.Wake_all in
  open_n_conns device sim 50 ~hold:true;
  Engine.Sim.run_until sim ~limit:(ms 300);
  let spurious =
    Array.fold_left
      (fun acc w -> acc + (Lb.Worker.stats w).Lb.Worker.spurious_wakeups)
      0 (Lb.Device.workers device)
  in
  check Alcotest.bool "thundering herd wastes wakeups" true (spurious > 50)

let test_device_close_semantics () =
  let device, sim = make_device Lb.Device.Reuseport in
  let closed = ref 0 and completed = ref 0 in
  let events =
    simple_events
      ~on_established:(fun conn ->
        let req =
          Lb.Request.make ~id:1 ~op:Lb.Request.Plain_proxy ~size:1 ~cost:(us 50)
            ~tenant_id:0
        in
        ignore (Lb.Device.send device conn req);
        Lb.Device.close_conn device conn)
      ~on_done:(fun _ _ -> incr completed)
      ~on_closed:(fun _ -> incr closed)
      ()
  in
  Lb.Device.connect device ~tenant:0 ~events;
  Engine.Sim.run_until sim ~limit:(ms 100);
  check Alcotest.int "request before close" 1 !completed;
  check Alcotest.int "then closed" 1 !closed

let test_device_pool_capacity_reject () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create 1 in
  let tenants = Netsim.Tenant.population ~n:1 ~base_dport:20000 in
  let device =
    Lb.Device.create ~sim ~rng ~mode:Lb.Device.Reuseport ~workers:1 ~tenants
      ~worker_config:{ Lb.Worker.default_config with conn_capacity = 5 }
      ()
  in
  Lb.Device.start device;
  let resets = ref 0 and ok = ref 0 in
  for _ = 1 to 10 do
    Lb.Device.connect device ~tenant:0
      ~events:
        (simple_events
           ~on_established:(fun _ -> incr ok)
           ~on_reset:(fun _ -> incr resets)
           ())
  done;
  Engine.Sim.run_until sim ~limit:(ms 100);
  check Alcotest.int "capacity honoured" 5 !ok;
  check Alcotest.int "rest rejected" 5 !resets

let test_device_crash_and_recover () =
  let device, sim = make_device (Lb.Device.Hermes Hermes.Config.default) in
  let resets = ref 0 in
  let conns = ref [] in
  for _ = 1 to 20 do
    Lb.Device.connect device ~tenant:0
      ~events:
        (simple_events
           ~on_established:(fun c -> conns := c :: !conns)
           ~on_reset:(fun _ -> incr resets)
           ())
  done;
  Engine.Sim.run_until sim ~limit:(ms 50);
  check Alcotest.int "all established" 20 (List.length !conns);
  (* crash the worker owning the first conn *)
  let victim = (List.hd !conns).Lb.Conn.worker_id in
  let victim_conns =
    List.length (List.filter (fun c -> c.Lb.Conn.worker_id = victim) !conns)
  in
  Lb.Device.crash_worker device victim;
  check Alcotest.bool "crashed" true (Lb.Worker.is_crashed (Lb.Device.worker device victim));
  Lb.Device.isolate_worker device victim;
  Lb.Device.recover_worker device victim;
  Engine.Sim.run_until sim ~limit:(ms 100);
  check Alcotest.int "its conns reset" victim_conns !resets;
  check Alcotest.bool "running again" false
    (Lb.Worker.is_crashed (Lb.Device.worker device victim));
  (* and it serves traffic again after recovery *)
  let served = ref false in
  Lb.Device.connect device ~tenant:0
    ~events:(simple_events ~on_established:(fun _ -> served := true) ());
  Engine.Sim.run_until sim ~limit:(ms 200);
  check Alcotest.bool "post-recovery service" true !served

(* Isolation drops the worker's dedicated subscriptions before recovery
   registers fresh sockets: 64 ports read 64 listening subscriptions
   after every crash/isolate/recover cycle. *)
let test_device_recover_keeps_one_listener_per_port () =
  let sim = Engine.Sim.create () in
  let tenants = Netsim.Tenant.population ~n:64 ~base_dport:20000 in
  let device =
    Lb.Device.create ~sim ~rng:(Engine.Rng.create 5) ~mode:Lb.Device.Reuseport
      ~workers:4 ~tenants ()
  in
  Lb.Device.start device;
  let listening () = Lb.Worker.listening_count (Lb.Device.worker device 0) in
  check Alcotest.int "start" 64 (listening ());
  for cycle = 1 to 3 do
    Engine.Sim.run_until sim ~limit:(ms (10 * cycle));
    Lb.Device.crash_worker device 0;
    Lb.Device.isolate_worker device 0;
    check Alcotest.int (Printf.sprintf "isolated %d" cycle) 0 (listening ());
    Lb.Device.recover_worker device 0;
    check Alcotest.int (Printf.sprintf "cycle %d" cycle) 64 (listening ())
  done

(* Quarantine closes the tenant's dedicated listeners as isolation
   does, epoll subscriptions included, and a recovered worker does not
   listen on the quarantined port again. *)
let test_device_quarantine_unsubscribes () =
  let sim = Engine.Sim.create () in
  let tenants = Netsim.Tenant.population ~n:4 ~base_dport:20000 in
  let device =
    Lb.Device.create ~sim ~rng:(Engine.Rng.create 5) ~mode:Lb.Device.Reuseport
      ~workers:4 ~tenants ()
  in
  Lb.Device.start device;
  let listening w = Lb.Worker.listening_count (Lb.Device.worker device w) in
  let all () = List.init 4 listening in
  check Alcotest.(list int) "start" [ 4; 4; 4; 4 ] (all ());
  Lb.Device.quarantine_tenant device ~tenant:1;
  check Alcotest.(list int) "quarantined" [ 3; 3; 3; 3 ] (all ());
  Lb.Device.isolate_worker device 0;
  check Alcotest.int "isolated" 0 (listening 0);
  Lb.Device.recover_worker device 0;
  check Alcotest.(list int) "recovered" [ 3; 3; 3; 3 ] (all ())

(* Isolation closes a dedicated listener and drops its subscription
   while its worker may still hold a polled readiness for it: after
   the poll, before any accept, or part-way through a multi-accept.
   The worker's next accept on that fd then fails as on a closed fd,
   counted as a spurious wakeup, and the units the event announced
   leave the WST busy count. *)
let test_device_isolate_mid_accept () =
  List.iter
    (fun (label, stop) ->
      let sim = Engine.Sim.create () in
      let tenants = Netsim.Tenant.population ~n:1 ~base_dport:20000 in
      let device =
        Lb.Device.create ~sim ~rng:(Engine.Rng.create 5)
          ~mode:(Lb.Device.Hermes Hermes.Config.default) ~workers:1 ~tenants ()
      in
      Lb.Device.start device;
      Engine.Sim.run_until sim ~limit:(ms 1);
      let rt = Option.get (Lb.Device.hermes_runtime device) in
      let wst = Hermes.Groups.wst (Hermes.Runtime.groups rt) 0 in
      let busy () = (Hermes.Wst.events wst).(0) in
      let established = ref 0 and failed = ref 0 in
      let events =
        {
          (simple_events ~on_established:(fun _ -> incr established) ()) with
          Lb.Device.dispatch_failed = (fun () -> incr failed);
        }
      in
      for _ = 1 to 3 do
        Lb.Device.connect device ~tenant:0 ~events
      done;
      while not (stop ~busy:(busy ()) ~established:!established) do
        if not (Engine.Sim.step sim) then Alcotest.failf "%s: never reached" label
      done;
      let w = Lb.Device.worker device 0 in
      let spurious = (Lb.Worker.stats w).spurious_wakeups in
      Lb.Device.isolate_worker device 0;
      Engine.Sim.run_until sim ~limit:(ms 20);
      check Alcotest.int (label ^ ": busy count") 0 (busy ());
      check Alcotest.int (label ^ ": every SYN resolved") 3 (!established + !failed);
      check Alcotest.int (label ^ ": failed accept") (spurious + 1)
        (Lb.Worker.stats w).spurious_wakeups;
      let before = !established in
      Lb.Device.recover_worker device 0;
      Lb.Device.connect device ~tenant:0 ~events;
      Engine.Sim.run_until sim ~limit:(ms 40);
      check Alcotest.int (label ^ ": accepts after recovery") (before + 1) !established)
    [
      ("polled", fun ~busy ~established -> busy = 3 && established = 0);
      ("mid multi-accept", fun ~busy:_ ~established -> established = 1);
    ]

let test_device_isolation_stops_hashing_to_dead () =
  (* reuseport: before isolation, ~1/4 of new conns stall on the dead
     worker; after isolation, everything goes to the living. *)
  let device, sim = make_device Lb.Device.Reuseport in
  Lb.Device.crash_worker device 0;
  let established = ref 0 in
  for _ = 1 to 40 do
    Lb.Device.connect device ~tenant:0
      ~events:(simple_events ~on_established:(fun _ -> incr established) ())
  done;
  Engine.Sim.run_until sim ~limit:(ms 100);
  let before = !established in
  check Alcotest.bool "some stalled on dead worker" true (before < 40);
  Lb.Device.isolate_worker device 0;
  for _ = 1 to 40 do
    Lb.Device.connect device ~tenant:0
      ~events:(simple_events ~on_established:(fun _ -> incr established) ())
  done;
  Engine.Sim.run_until sim ~limit:(ms 200);
  check Alcotest.int "all after isolation" (before + 40) !established

let test_device_hang_injection_and_probe () =
  let device, sim = make_device (Lb.Device.Hermes Hermes.Config.default) in
  let prober =
    Lb.Probe.Per_worker.start
      ~config:
        { Lb.Probe.interval = ms 50; timeout = ms 400; delayed_threshold = ms 200 }
      ~target:device
  in
  Lb.Device.inject_hang device ~worker:1 ~duration:(Engine.Sim_time.sec 2);
  (* probes are serialized per worker, so each blocked probe costs its
     full 400 ms timeout before the next is sent *)
  Engine.Sim.run_until sim ~limit:(Engine.Sim_time.sec 3);
  Lb.Probe.Per_worker.stop prober;
  let per = Lb.Probe.Per_worker.delayed_by_worker prober in
  check Alcotest.bool "hung worker delayed" true (per.(1) >= 2);
  check Alcotest.int "healthy worker clean" 0 per.(0)

(* A probe-loss burst loses every probe the per-worker prober sends
   inside it, each counted delayed when its timeout expires; no probe
   sent outside the burst is. *)
let test_device_probe_loss () =
  let sim = Engine.Sim.create () in
  let tenants = Netsim.Tenant.population ~n:4 ~base_dport:20000 in
  let device =
    Lb.Device.create ~sim ~rng:(Engine.Rng.create 5) ~mode:Lb.Device.Reuseport
      ~workers:4 ~tenants ()
  in
  Lb.Device.start device;
  let prober =
    Lb.Probe.Per_worker.start ~config:Lb.Probe.default_config ~target:device
  in
  let sent_until t =
    Engine.Sim.run_until sim ~limit:(ms t);
    Lb.Probe.Per_worker.sent prober
  in
  let before = sent_until 1050 in
  Lb.Device.set_probe_loss device true;
  let inside = sent_until 1450 - before in
  Lb.Device.set_probe_loss device false;
  (* one probe per worker, each outstanding until its 2 s timeout *)
  check Alcotest.int "sent inside the burst" 4 inside;
  check Alcotest.int "none timed out yet" 0 (Lb.Probe.Per_worker.delayed prober);
  let total = sent_until 4000 in
  Lb.Probe.Per_worker.stop prober;
  Engine.Sim.run_until sim ~limit:(ms 4500);
  check Alcotest.bool "probing resumed" true (total > before + inside);
  check Alcotest.(array int) "each lost probe delayed, no other" [| 1; 1; 1; 1 |]
    (Lb.Probe.Per_worker.delayed_by_worker prober)

(* A hang is a stall, not a request: it shows in no accept, completion,
   latency or live-connection figure. *)
let test_device_hang_is_not_traffic () =
  let device, sim = make_device (Lb.Device.Hermes Hermes.Config.default) in
  Lb.Device.inject_hang device ~worker:0 ~duration:(Engine.Sim_time.ms 100);
  Engine.Sim.run_until sim ~limit:(Engine.Sim_time.ms 200);
  check Alcotest.(array int) "accepted" [| 0; 0; 0; 0 |]
    (Lb.Device.accepted_per_worker device);
  check Alcotest.int "completed" 0 (Lb.Device.completed device);
  check Alcotest.int "latency samples" 0
    (Stats.Histogram.count (Lb.Device.latency_hist device));
  check Alcotest.(array int) "live connections" [| 0; 0; 0; 0 |]
    (Lb.Device.conns_per_worker device)

let test_device_hermes_avoids_hung_worker () =
  let device, sim = make_device (Lb.Device.Hermes Hermes.Config.default) in
  (* warm the loop so every worker has a fresh avail timestamp *)
  Engine.Sim.run_until sim ~limit:(ms 50);
  Lb.Device.inject_hang device ~worker:2 ~duration:(Engine.Sim_time.sec 10);
  (* give other workers' schedulers time to notice the stale stamp *)
  Engine.Sim.run_until sim ~limit:(ms 500);
  let accepted_before = (Lb.Device.accepted_per_worker device).(2) in
  for _ = 1 to 60 do
    Lb.Device.connect device ~tenant:0 ~events:(simple_events ())
  done;
  Engine.Sim.run_until sim ~limit:(Engine.Sim_time.sec 1);
  let accepted_after = (Lb.Device.accepted_per_worker device).(2) in
  check Alcotest.int "no new conns on hung worker" accepted_before accepted_after

let test_device_degradation_sheds () =
  let device, sim = make_device (Lb.Device.Hermes Hermes.Config.default) in
  Lb.Device.enable_degradation device
    ~policy:{ Hermes.Degrade.util_threshold = 0.9; shed_fraction = 0.5; min_shed = 1 }
    ~check_every:(ms 100);
  (* hold connections on worker 0 and keep it overloaded *)
  let w0 = Lb.Device.worker device 0 in
  let conns = List.init 10 (fun _ -> Lb.Worker.adopt_conn w0 ~tenant_id:0) in
  List.iter
    (fun conn ->
      ignore
        (Lb.Worker.deliver w0 conn
           (Lb.Request.make ~id:(Lb.Device.fresh_id device)
              ~op:Lb.Request.Compress ~size:0 ~cost:(ms 300) ~tenant_id:0)))
    conns;
  Engine.Sim.run_until sim ~limit:(Engine.Sim_time.sec 1);
  check Alcotest.bool "some connections shed" true (Lb.Device.conns_reset device > 0)

(* The stall carrier is no client's connection: shedding passes over it
   even where it holds the worker's lowest fd. *)
let test_device_degradation_spares_carrier () =
  let device, sim = make_device (Lb.Device.Hermes Hermes.Config.default) in
  Lb.Device.enable_degradation device
    ~policy:{ Hermes.Degrade.util_threshold = 0.9; shed_fraction = 0.5; min_shed = 1 }
    ~check_every:(ms 100);
  Lb.Device.inject_hang device ~worker:0 ~duration:(us 10);
  let w0 = Lb.Device.worker device 0 in
  let conns = List.init 10 (fun _ -> Lb.Worker.adopt_conn w0 ~tenant_id:0) in
  List.iter
    (fun conn ->
      ignore
        (Lb.Worker.deliver w0 conn
           (Lb.Request.make ~id:(Lb.Device.fresh_id device)
              ~op:Lb.Request.Compress ~size:0 ~cost:(ms 300) ~tenant_id:0)))
    conns;
  let records =
    Capture.records (fun () ->
        Engine.Sim.run_until sim ~limit:(Engine.Sim_time.sec 1))
  in
  let shed =
    List.filter_map
      (fun r ->
        match r.Trace.event with
        | Trace.Close { conn; reset = true; _ } -> Some conn
        | _ -> None)
      records
  in
  let clients = List.map (fun (c : Lb.Conn.t) -> c.Lb.Conn.id) conns in
  check Alcotest.bool "some connections shed" true (shed <> []);
  check Alcotest.(list int) "only client connections shed" []
    (List.filter (fun id -> not (List.mem id clients)) shed)

let test_device_sampling () =
  let device, sim = make_device Lb.Device.Reuseport in
  Lb.Device.enable_sampling device ~every:(ms 10) ();
  open_n_conns device sim 10 ~hold:false;
  Engine.Sim.run_until sim ~limit:(ms 105);
  let samples = Lb.Device.samples device in
  check Alcotest.int "ten samples" 10 (List.length samples);
  List.iter
    (fun s ->
      Array.iter
        (fun u -> check Alcotest.bool "util in [0,1]" true (u >= 0.0 && u <= 1.0))
        s.Lb.Device.util)
    samples

let test_device_probe_once_timeout () =
  let device, sim = make_device Lb.Device.Reuseport in
  (* crash everything: the probe must report None at its timeout *)
  for w = 0 to 3 do
    Lb.Device.crash_worker device w
  done;
  let result = ref (Some 0) in
  Lb.Device.probe_once device ~tenant:0 ~timeout:(ms 300) ~on_result:(fun r ->
      result := r);
  Engine.Sim.run_until sim ~limit:(Engine.Sim_time.sec 1);
  check Alcotest.bool "timed out" true (!result = None)

let test_device_probe_timeout_traced () =
  (* A probe that dies by timeout must say so in the trace — loss is
     distinguishable from delay. *)
  let device, sim = make_device Lb.Device.Reuseport in
  for w = 0 to 3 do
    Lb.Device.crash_worker device w
  done;
  let calls = ref 0 in
  let records =
    Capture.records (fun () ->
      Lb.Device.probe_once device ~tenant:0 ~timeout:(ms 300)
        ~on_result:(fun r ->
          incr calls;
          check Alcotest.bool "timeout reports None" true (r = None));
      Engine.Sim.run_until sim ~limit:(Engine.Sim_time.sec 1))
  in
  check Alcotest.int "on_result exactly once" 1 !calls;
  let timeouts =
    List.filter_map
      (fun r ->
        match r.Trace.event with
        | Trace.Probe_timeout { tenant; after } -> Some (tenant, after)
        | _ -> None)
      records
  in
  check
    Alcotest.(list (pair int int))
    "one probe.timeout event" [ (0, ms 300) ] timeouts

let test_device_probe_quarantined_single_fire () =
  (* Quarantine makes dispatch fail synchronously, before probe_once
     even returns; the pending timeout must then be cancelled rather
     than firing on_result a second time. *)
  let device, sim = make_device Lb.Device.Reuseport in
  Lb.Device.quarantine_tenant device ~tenant:0;
  let calls = ref 0 in
  Lb.Device.probe_once device ~tenant:0 ~timeout:(ms 300) ~on_result:(fun r ->
      incr calls;
      check Alcotest.bool "failure reports None" true (r = None));
  check Alcotest.int "fired synchronously" 1 !calls;
  Engine.Sim.run_until sim ~limit:(Engine.Sim_time.sec 1);
  check Alcotest.int "timeout did not double-fire" 1 !calls

let test_worker_cpu_accounting () =
  let device, sim = make_device Lb.Device.Reuseport in
  let done_ref = ref false in
  Lb.Device.connect device ~tenant:0
    ~events:
      (simple_events
         ~on_established:(fun conn ->
           ignore
             (Lb.Device.send device conn
                (Lb.Request.make ~id:1 ~op:Lb.Request.Plain_proxy ~size:1
                   ~cost:(ms 10) ~tenant_id:0)))
         ~on_done:(fun _ _ -> done_ref := true)
         ());
  Engine.Sim.run_until sim ~limit:(ms 100);
  check Alcotest.bool "completed" true !done_ref;
  let busy = Array.fold_left ( + ) 0 (Array.map Lb.Worker.cpu_busy (Lb.Device.workers device)) in
  (* at least the 10ms request, plus overheads, across all workers *)
  check Alcotest.bool "cpu counted" true (busy >= ms 10 && busy < ms 20)

(* SYNs that reach a crashed worker's dedicated listener wait in its
   backlog.  A restart must report them the way a fresh epoll
   registration does on Linux, as readiness equal to the backlog, or
   the restarted worker, which accepts only what one event reports,
   strands them for good. *)
let test_device_restart_accepts_backlog () =
  List.iter
    (fun mode ->
      let device, sim = make_device mode in
      let name = Lb.Device.mode_name mode in
      Lb.Device.crash_worker device 0;
      let established = ref 0 in
      for _ = 1 to 40 do
        Lb.Device.connect device ~tenant:0
          ~events:(simple_events ~on_established:(fun _ -> incr established) ())
      done;
      Engine.Sim.run_until sim ~limit:(ms 50);
      check Alcotest.bool (name ^ ": some wait on the crashed worker") true
        (!established < 40);
      Lb.Device.recover_worker device 0;
      Engine.Sim.run_until sim ~limit:(ms 200);
      check Alcotest.int (name ^ ": all accepted after the restart") 40
        !established)
    [ Lb.Device.Reuseport; Lb.Device.Hermes Hermes.Config.default ]

(* A resume pending at a crash must die silently even when the worker
   restarts before it falls due.  The restarted worker is handed a
   20 ms request at once, so the stale resume falls due while that
   request is being charged: run, it would finish the old request or
   close the connection the restart already reset, or advance the new
   request's continuation early. *)
let test_worker_crash_mid_charge () =
  let run_to_crash ~until_ =
    let device, sim = make_device Lb.Device.Reuseport in
    let conn_ref = ref None and done_n = ref 0 in
    Lb.Device.connect device ~tenant:0
      ~events:
        (simple_events
           ~on_established:(fun c -> conn_ref := Some c)
           ~on_done:(fun _ _ -> incr done_n)
           ());
    Engine.Sim.run_until sim ~limit:(ms 1);
    let conn = Option.get !conn_ref in
    let wid = conn.Lb.Conn.worker_id in
    let w = Lb.Device.worker device wid in
    ignore
      (Lb.Device.send device conn
         (Lb.Request.make ~id:1 ~op:Lb.Request.Plain_proxy ~size:1 ~cost:(ms 10)
            ~tenant_id:0));
    Lb.Device.close_conn device conn;
    while not (until_ conn !done_n) do
      ignore (Engine.Sim.step sim)
    done;
    Lb.Device.crash_worker device wid;
    Lb.Device.recover_worker device wid;
    let crashed_at = Engine.Sim.now sim in
    let before = (Lb.Worker.stats w).Lb.Worker.completed in
    let fresh = Lb.Worker.adopt_conn w ~tenant_id:0 in
    ignore
      (Lb.Worker.deliver w fresh
         (Lb.Request.make ~id:2 ~op:Lb.Request.Plain_proxy ~size:1 ~cost:(ms 20)
            ~tenant_id:0));
    Engine.Sim.run_until sim ~limit:(crashed_at + ms 19);
    check Alcotest.int "nothing completes early" before
      (Lb.Worker.stats w).Lb.Worker.completed;
    Engine.Sim.run_until sim ~limit:(ms 60);
    check Alcotest.int "the new request completes once" (before + 1)
      (Lb.Worker.stats w).Lb.Worker.completed;
    (device, Lb.Worker.stats w, !done_n)
  in
  (* The request charge is pending once the request left the inbox. *)
  let device, st, done_n =
    run_to_crash ~until_:(fun conn _ -> Lb.Conn.queued conn = 1)
  in
  check Alcotest.int "old request never completes" 0 done_n;
  check Alcotest.int "device completed only the new one" 1 (Lb.Device.completed device);
  check Alcotest.int "reset once" 1 st.Lb.Worker.resets;
  check Alcotest.int "not closed" 0 st.Lb.Worker.closed;
  (* The close charge is pending once the request completed. *)
  let device, st, done_n = run_to_crash ~until_:(fun _ n -> n = 1) in
  check Alcotest.int "one completion" 1 done_n;
  check Alcotest.int "reset once after close charge" 1 st.Lb.Worker.resets;
  check Alcotest.int "no double close" 0 st.Lb.Worker.closed;
  check Alcotest.int "device resets" 1 (Lb.Device.conns_reset device)

let () =
  Alcotest.run "lb"
    [
      ( "http",
        [
          Alcotest.test_case "parse simple" `Quick test_http_parse_simple;
          Alcotest.test_case "parse body" `Quick test_http_parse_body;
          Alcotest.test_case "truncated" `Quick test_http_truncated;
          Alcotest.test_case "bad inputs" `Quick test_http_bad_inputs;
          Alcotest.test_case "header case" `Quick test_http_header_case_insensitive;
          Alcotest.test_case "path query" `Quick test_http_path_query;
          Alcotest.test_case "websocket upgrade" `Quick test_http_websocket_upgrade;
          Alcotest.test_case "request roundtrip" `Quick test_http_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_http_roundtrip;
        ] );
      ( "router",
        [
          Alcotest.test_case "specificity" `Quick test_router_specificity;
          Alcotest.test_case "host" `Quick test_router_host;
          Alcotest.test_case "no match" `Quick test_router_no_match;
          Alcotest.test_case "request and cost" `Quick test_router_request_and_cost;
        ] );
      ( "request_conn",
        [
          Alcotest.test_case "request validation" `Quick test_request_validation;
          Alcotest.test_case "default costs" `Quick test_request_default_costs;
          Alcotest.test_case "conn lifecycle" `Quick test_conn_lifecycle;
        ] );
      ( "backend",
        [
          Alcotest.test_case "round robin" `Quick test_backend_round_robin;
          Alcotest.test_case "synced restart" `Quick test_backend_synced_restart;
          Alcotest.test_case "randomized restart" `Quick test_backend_randomized_restart;
          Alcotest.test_case "pool modes" `Quick test_backend_pool_modes;
          Alcotest.test_case "resize" `Quick test_backend_resize;
        ] );
      ( "device",
        [
          Alcotest.test_case "end to end, all modes" `Quick test_device_end_to_end_all_modes;
          Alcotest.test_case "lifo concentration" `Quick test_device_lifo_concentration;
          Alcotest.test_case "io_uring fifo concentration" `Quick
            test_device_fifo_concentration;
          Alcotest.test_case "rr balances" `Quick test_device_rr_balances;
          Alcotest.test_case "hermes balances" `Quick test_device_hermes_balances;
          Alcotest.test_case "wake-all spurious" `Quick test_device_wake_all_spurious;
          Alcotest.test_case "close semantics" `Quick test_device_close_semantics;
          Alcotest.test_case "pool capacity" `Quick test_device_pool_capacity_reject;
          Alcotest.test_case "crash and recover" `Quick test_device_crash_and_recover;
          Alcotest.test_case "isolation stops dead hashing" `Quick
            test_device_isolation_stops_hashing_to_dead;
          Alcotest.test_case "hang + per-worker probe" `Quick
            test_device_hang_injection_and_probe;
          Alcotest.test_case "hang is not traffic" `Quick test_device_hang_is_not_traffic;
          Alcotest.test_case "hermes avoids hung worker" `Quick
            test_device_hermes_avoids_hung_worker;
          Alcotest.test_case "degradation sheds" `Quick test_device_degradation_sheds;
          Alcotest.test_case "degradation spares the stall carrier" `Quick
            test_device_degradation_spares_carrier;
          Alcotest.test_case "sampling" `Quick test_device_sampling;
          Alcotest.test_case "probe timeout" `Quick test_device_probe_once_timeout;
          Alcotest.test_case "probe timeout traced" `Quick
            test_device_probe_timeout_traced;
          Alcotest.test_case "recover keeps one listener per port" `Quick
            test_device_recover_keeps_one_listener_per_port;
          Alcotest.test_case "probe loss delays the prober" `Quick test_device_probe_loss;
          Alcotest.test_case "quarantine unsubscribes listeners" `Quick
            test_device_quarantine_unsubscribes;
          Alcotest.test_case "isolate mid-accept" `Quick test_device_isolate_mid_accept;
          Alcotest.test_case "probe quarantined single fire" `Quick
            test_device_probe_quarantined_single_fire;
          Alcotest.test_case "cpu accounting" `Quick test_worker_cpu_accounting;
          Alcotest.test_case "crash mid-charge" `Quick test_worker_crash_mid_charge;
          Alcotest.test_case "restart accepts its backlog" `Quick
            test_device_restart_accepts_backlog;
        ] );
    ]
