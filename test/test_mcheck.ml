(* Tests for lib/mcheck: the DPOR explorer itself (toy programs with
   known interleaving counts and known bugs), a DPOR-vs-exhaustive
   differential on observable outcomes, the engine scenario suite, the
   checker's determinism, the Task_deque size bound under real
   concurrency, and the concurrency source lint. *)

module M = Mcheck.Model
module P = Mcheck.Model.P

let cfg = M.default_config
let run ?(config = cfg) ?final f = M.check ~config ?final ~name:"toy" f

(* ------------------------------------------------------------------ *)
(* Explorer: toy programs                                               *)

let test_two_writes_same_loc () =
  let o =
    run (fun () ->
        let x = P.Atomic.make ~name:"x" 0 in
        let t = P.Thread.spawn ~name:"a" (fun () -> P.Atomic.set x 1) in
        P.Atomic.set x 2;
        P.Thread.join t)
  in
  Alcotest.(check bool) "no counterexample" true (o.M.counterexample = None);
  Alcotest.(check int) "both orders of the write-write race" 2 o.M.executions

let test_independent_writes_reduced () =
  let o =
    run (fun () ->
        let x = P.Atomic.make ~name:"x" 0 in
        let y = P.Atomic.make ~name:"y" 0 in
        let t = P.Thread.spawn ~name:"a" (fun () -> P.Atomic.set y 1) in
        P.Atomic.set x 2;
        P.Thread.join t)
  in
  Alcotest.(check bool) "no counterexample" true (o.M.counterexample = None);
  Alcotest.(check int) "independent ops: one interleaving" 1 o.M.executions

let test_ab_ba_deadlock_found () =
  let o =
    run (fun () ->
        let m1 = P.Mutex.create ~name:"m1" () in
        let m2 = P.Mutex.create ~name:"m2" () in
        let t =
          P.Thread.spawn ~name:"a" (fun () ->
              P.Mutex.lock m1;
              P.Mutex.lock m2;
              P.Mutex.unlock m2;
              P.Mutex.unlock m1)
        in
        P.Mutex.lock m2;
        P.Mutex.lock m1;
        P.Mutex.unlock m1;
        P.Mutex.unlock m2;
        P.Thread.join t)
  in
  match o.M.counterexample with
  | Some c ->
    Alcotest.(check string) "deadlock kind" "deadlock" c.M.kind;
    Alcotest.(check bool) "schedule reported" true (c.M.trace <> [])
  | None -> Alcotest.fail "AB/BA deadlock not found"

let test_lost_wakeup_found () =
  (* signal with no predicate: the interleaving where the signal fires
     before the wait parks the waiter forever *)
  let o =
    run (fun () ->
        let m = P.Mutex.create ~name:"m" () in
        let c = P.Condition.create ~name:"c" () in
        let t =
          P.Thread.spawn ~name:"waiter" (fun () ->
              P.Mutex.lock m;
              P.Condition.wait c m;
              P.Mutex.unlock m)
        in
        P.Mutex.lock m;
        P.Condition.signal c;
        P.Mutex.unlock m;
        P.Thread.join t)
  in
  match o.M.counterexample with
  | Some c -> Alcotest.(check string) "deadlock kind" "deadlock" c.M.kind
  | None -> Alcotest.fail "lost wakeup not found"

let test_predicate_wait_clean () =
  (* the fix for the above: a predicate loop over shared state *)
  let o =
    run (fun () ->
        let m = P.Mutex.create ~name:"m" () in
        let c = P.Condition.create ~name:"c" () in
        let flag = P.Plain.make ~name:"flag" false in
        let t =
          P.Thread.spawn ~name:"waiter" (fun () ->
              P.Mutex.lock m;
              while not (P.Plain.get flag) do
                P.Condition.wait c m
              done;
              P.Mutex.unlock m)
        in
        P.Mutex.lock m;
        P.Plain.set flag true;
        P.Condition.signal c;
        P.Mutex.unlock m;
        P.Thread.join t)
  in
  Alcotest.(check bool) "no counterexample" true (o.M.counterexample = None);
  Alcotest.(check (list string)) "no races" []
    (List.map (fun r -> r.M.loc) o.M.races)

let test_plain_race_found () =
  let o =
    run (fun () ->
        let c = P.Plain.make ~name:"cell" 0 in
        let t = P.Thread.spawn ~name:"a" (fun () -> P.Plain.set c 1) in
        P.Plain.set c 2;
        P.Thread.join t)
  in
  Alcotest.(check bool) "no counterexample" true (o.M.counterexample = None);
  Alcotest.(check bool) "write-write race on cell" true
    (List.exists (fun r -> r.M.loc = "cell") o.M.races)

let test_mutexed_counter_clean () =
  let o =
    run
      ~final:(fun () -> ())
      (fun () ->
        let m = P.Mutex.create ~name:"m" () in
        let c = P.Plain.make ~name:"cnt" 0 in
        let bump () =
          P.Mutex.lock m;
          P.Plain.set c (P.Plain.get c + 1);
          P.Mutex.unlock m
        in
        let t = P.Thread.spawn ~name:"a" bump in
        bump ();
        P.Thread.join t;
        if P.Plain.get c <> 2 then failwith "lost update under mutex")
  in
  Alcotest.(check bool) "no counterexample" true (o.M.counterexample = None);
  Alcotest.(check (list string)) "no races" []
    (List.map (fun r -> r.M.loc) o.M.races)

let test_prim_outside_check () =
  match P.Atomic.make 0 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "P outside Model.check must raise"

(* ------------------------------------------------------------------ *)
(* DPOR vs exhaustive DFS: the reduction must preserve the set of      *)
(* observable outcomes while exploring no more interleavings           *)

let collect config prog =
  let acc = ref [] in
  let o = M.check ~config ~name:"diff" (fun () -> acc := prog () :: !acc) in
  (o, List.sort_uniq compare !acc)

let test_dpor_vs_naive_outcomes () =
  let progs =
    [
      ( "lost update",
        fun () ->
          let x = P.Atomic.make ~name:"x" 0 in
          let bump () =
            let v = P.Atomic.get x in
            P.Atomic.set x (v + 1)
          in
          let t = P.Thread.spawn ~name:"a" bump in
          bump ();
          P.Thread.join t;
          P.Atomic.get x );
      ( "message passing",
        fun () ->
          let data = P.Atomic.make ~name:"data" 0 in
          let flag = P.Atomic.make ~name:"flag" 0 in
          let seen = ref (-1) in
          let t =
            P.Thread.spawn ~name:"reader" (fun () ->
                if P.Atomic.get flag = 1 then seen := P.Atomic.get data
                else seen := -1)
          in
          P.Atomic.set data 42;
          P.Atomic.set flag 1;
          P.Thread.join t;
          !seen );
      ( "store buffering",
        fun () ->
          let x = P.Atomic.make ~name:"x" 0 in
          let y = P.Atomic.make ~name:"y" 0 in
          let r1 = ref 0 in
          let t =
            P.Thread.spawn ~name:"a" (fun () ->
                P.Atomic.set x 1;
                r1 := P.Atomic.get y)
          in
          P.Atomic.set y 1;
          let r2 = P.Atomic.get x in
          P.Thread.join t;
          (2 * !r1) + r2 );
    ]
  in
  List.iter
    (fun (name, prog) ->
      let od, outcomes_dpor = collect { cfg with M.dpor = true } prog in
      let on, outcomes_naive = collect { cfg with M.dpor = false } prog in
      Alcotest.(check (list int))
        (name ^ ": same outcome set")
        outcomes_naive outcomes_dpor;
      Alcotest.(check bool)
        (name ^ ": reduction explores no more")
        true
        (od.M.executions <= on.M.executions);
      Alcotest.(check bool)
        (name ^ ": both clean")
        true
        (od.M.counterexample = None && on.M.counterexample = None))
    progs

(* ------------------------------------------------------------------ *)
(* The engine scenario suite: clean scenarios explore clean, seeded    *)
(* bugs are found                                                      *)

let test_scenarios () =
  List.iter
    (fun (sc : Mcheck.Scenarios.t) ->
      let o = sc.run sc.config in
      let pass, reason = Mcheck.Scenarios.evaluate sc o in
      Alcotest.(check bool) (sc.name ^ ": " ^ reason) true pass)
    Mcheck.Scenarios.all

(* Same scenario, same budget, twice: identical exploration and the
   identical counterexample schedule — the CI gate depends on the
   checker being deterministic. *)
let test_deterministic_counterexample () =
  match Mcheck.Scenarios.find "pool_count_after_push" with
  | None -> Alcotest.fail "scenario list changed: pool_count_after_push gone"
  | Some sc -> (
    let o1 = sc.run sc.config in
    let o2 = sc.run sc.config in
    Alcotest.(check int) "same executions" o1.M.executions o2.M.executions;
    Alcotest.(check int) "same prunes" o1.M.prunes o2.M.prunes;
    match (o1.M.counterexample, o2.M.counterexample) with
    | Some c1, Some c2 ->
      Alcotest.(check (list string)) "same schedule" c1.M.trace c2.M.trace
    | _ -> Alcotest.fail "seeded bug not re-found")

(* ------------------------------------------------------------------ *)
(* Task_deque.size bound under real domains (the task_deque.mli        *)
(* contract: claimed read before size, pushed read after)              *)

let prop_size_quiescent_bound =
  QCheck.Test.make ~name:"size quiescent bound" ~count:15
    QCheck.(int_range 50 400)
    (fun total ->
      let d = Engine.Task_deque.create ~capacity:1 () in
      let pushed = Atomic.make 0 in
      let claimed = Atomic.make 0 in
      let stop = Atomic.make false in
      let violations = Atomic.make 0 in
      let observer =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              let c0 = Atomic.get claimed in
              let s = Engine.Task_deque.size d in
              let p0 = Atomic.get pushed in
              if s > p0 - c0 then Atomic.incr violations
            done)
      in
      let thief =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              match Engine.Task_deque.steal d with
              | Some _ -> Atomic.incr claimed
              | None -> Domain.cpu_relax ()
            done)
      in
      for i = 1 to total do
        Atomic.incr pushed;
        Engine.Task_deque.push d i;
        if i mod 3 = 0 then
          match Engine.Task_deque.pop d with
          | Some _ -> Atomic.incr claimed
          | None -> ()
      done;
      let rec drain () =
        match Engine.Task_deque.pop d with
        | Some _ ->
          Atomic.incr claimed;
          drain ()
        | None -> ()
      in
      drain ();
      Atomic.set stop true;
      Domain.join thief;
      Domain.join observer;
      Atomic.get violations = 0)

(* ------------------------------------------------------------------ *)
(* Source lint                                                          *)

let lint = Mcheck.Src_lint.scan_source ~file:"t.ml"

let test_lint_flags_raw_primitives () =
  Alcotest.(check int)
    "bare Atomic and Mutex flagged" 2
    (List.length (lint "let x = Atomic.make 0\nlet () = Mutex.lock m\n"));
  let vs = lint "let v = Stdlib.Mutex.create ()\n" in
  Alcotest.(check int) "Stdlib-qualified flagged" 1 (List.length vs);
  Alcotest.(check string)
    "token names the path" "Stdlib...Mutex"
    (List.hd vs).Mcheck.Src_lint.token;
  Alcotest.(check int)
    "Domain.spawn flagged" 1
    (List.length (lint "let d = Domain.spawn f\n"));
  Alcotest.(check int)
    "Condition flagged with line"
    2
    (let vs = lint "let a = 1\nlet () = Condition.signal c\n" in
     (List.hd vs).Mcheck.Src_lint.line)

let test_lint_allows_shimmed_uses () =
  Alcotest.(check int)
    "P.Atomic and Mcheck_shim.Real pass" 0
    (List.length
       (lint
          "let x = P.Atomic.make 0\n\
           module A = Mcheck_shim.Real.Atomic\n\
           let y = P.Condition.create ()\n"))

let test_lint_ignores_comments_strings_chars () =
  Alcotest.(check int)
    "comments, strings, chars ignored" 0
    (List.length
       (lint
          "(* Atomic.get here, and nested (* Mutex.lock *) too *)\n\
           let s = \"Condition.wait\"\n\
           let c = 'M'\n\
           let esc = '\\n'\n\
           (* a \"string with *) inside\" keeps the comment open \
           Atomic.set *)\n"))

let test_lint_tree_is_clean () =
  (* dune copies the sources into the build tree, so the repo layout
     is visible one level up from the test runner *)
  match Mcheck.Src_lint.scan_tree ~root:".." with
  | Error msg -> Printf.printf "lint tree check skipped: %s\n" msg
  | Ok [] -> ()
  | Ok vs ->
    Alcotest.fail
      ("engine/trace sources not shim-clean: "
      ^ String.concat "; "
          (List.map
             (fun (v : Mcheck.Src_lint.violation) ->
               Printf.sprintf "%s:%d %s" v.file v.line v.token)
             vs))

(* Dead exports: a [val] counts as used only when some implementation
   other than its own names it outside comments and strings. *)
let test_dead_exports () =
  let mlis =
    [
      ( "lib/a/m.mli",
        "val used : int\n(** doc *)\nval internal : int\nval dead : int\nval ( + ) : int\n" );
    ]
  in
  let mls =
    [
      ("lib/a/m.ml", "let used = 1\nlet internal = 2\nlet dead = internal\n");
      ("test/t.ml", "let _ = M.used (* M.dead *)\nlet s = \"M.dead\"\n");
    ]
  in
  Alcotest.(check (list (pair string int)))
    "unused outside own module" [ ("internal", 3); ("dead", 4) ]
    (List.map
       (fun (d : Mcheck.Src_lint.dead_export) -> (d.name, d.line))
       (Mcheck.Src_lint.dead_exports ~mlis ~mls))

let () =
  Alcotest.run "mcheck"
    [
      ( "explorer",
        [
          Alcotest.test_case "write-write race: 2 orders" `Quick
            test_two_writes_same_loc;
          Alcotest.test_case "independent writes: 1 order" `Quick
            test_independent_writes_reduced;
          Alcotest.test_case "AB/BA deadlock found" `Quick
            test_ab_ba_deadlock_found;
          Alcotest.test_case "lost wakeup found" `Quick test_lost_wakeup_found;
          Alcotest.test_case "predicate wait clean" `Quick
            test_predicate_wait_clean;
          Alcotest.test_case "plain race found" `Quick test_plain_race_found;
          Alcotest.test_case "mutexed counter clean" `Quick
            test_mutexed_counter_clean;
          Alcotest.test_case "P outside check raises" `Quick
            test_prim_outside_check;
          Alcotest.test_case "DPOR vs naive outcome sets" `Quick
            test_dpor_vs_naive_outcomes;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "all scenarios pass" `Quick test_scenarios;
          Alcotest.test_case "deterministic counterexample" `Quick
            test_deterministic_counterexample;
        ] );
      ( "size bound",
        [ QCheck_alcotest.to_alcotest prop_size_quiescent_bound ] );
      ( "source lint",
        [
          Alcotest.test_case "flags raw primitives" `Quick
            test_lint_flags_raw_primitives;
          Alcotest.test_case "allows shimmed uses" `Quick
            test_lint_allows_shimmed_uses;
          Alcotest.test_case "ignores comments/strings/chars" `Quick
            test_lint_ignores_comments_strings_chars;
          Alcotest.test_case "repo tree is clean" `Quick
            test_lint_tree_is_clean;
          Alcotest.test_case "dead exports" `Quick test_dead_exports;
        ] );
    ]
