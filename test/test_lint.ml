(* Tests for the source lints: the concurrency rule over lib/engine and
   lib/trace, and the dead-export scan over lib/ interfaces. *)

(* ------------------------------------------------------------------ *)
(* Source lint                                                          *)

let lint = Lint.Src_lint.scan_source ~file:"t.ml"

let test_lint_flags_raw_primitives () =
  Alcotest.(check int)
    "bare Atomic and Mutex flagged" 2
    (List.length (lint "let x = Atomic.make 0\nlet () = Mutex.lock m\n"));
  let vs = lint "let v = Stdlib.Mutex.create ()\n" in
  Alcotest.(check int) "Stdlib-qualified flagged" 1 (List.length vs);
  Alcotest.(check string)
    "token names the module" "Mutex" (List.hd vs).Lint.Src_lint.token;
  Alcotest.(check int)
    "any Domain use flagged" 2
    (List.length
       (lint "let d = Domain.spawn f\nlet k = Domain.DLS.new_key g\n"));
  Alcotest.(check int)
    "a functor-parameter path flagged" 1
    (List.length (lint "let x = P.Atomic.make 0\n"));
  Alcotest.(check int)
    "Condition flagged with line"
    2
    (let vs = lint "let a = 1\nlet () = Condition.signal c\n" in
     (List.hd vs).Lint.Src_lint.line)

let test_lint_allows_look_alike_names () =
  Alcotest.(check int)
    "longer names and lowercase fields pass" 0
    (List.length
       (lint
          "let x = Atomics.make 0\n\
           let d = t.domain.count\n\
           module My_Mutex = Foo\n\
           let y = MyCondition.create ()\n"))

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
  match Lint.Src_lint.scan_tree ~root:".." with
  | Error msg -> Printf.printf "lint tree check skipped: %s\n" msg
  | Ok [] -> ()
  | Ok vs ->
    Alcotest.fail
      ("engine/trace sources use concurrency primitives: "
      ^ String.concat "; "
          (List.map
             (fun (v : Lint.Src_lint.violation) ->
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
       (fun (d : Lint.Src_lint.dead_export) -> (d.name, d.line))
       (Lint.Src_lint.dead_exports ~mlis ~mls))

let () =
  Alcotest.run "lint"
    [
      ( "source lint",
        [
          Alcotest.test_case "flags raw primitives" `Quick
            test_lint_flags_raw_primitives;
          Alcotest.test_case "allows look-alike names" `Quick
            test_lint_allows_look_alike_names;
          Alcotest.test_case "ignores comments/strings/chars" `Quick
            test_lint_ignores_comments_strings_chars;
          Alcotest.test_case "repo tree is clean" `Quick
            test_lint_tree_is_clean;
          Alcotest.test_case "dead exports" `Quick test_dead_exports;
        ] );
    ]
