(* Tests for the source lints: the typed-tree reading of uses, the two
   rules over (declarations, uses), and the repo's own build tree. *)

open Lint.Src_lint

let paths uses = List.sort_uniq compare (List.map (fun u -> u.path) uses)

let flagged src = paths (concurrency (uses_of_source ~file:"lib/t.ml" src))

let test_flags_raw_primitives () =
  Alcotest.(check (list string))
    "resolved concurrency paths"
    [
      "Stdlib.Atomic.make";
      "Stdlib.Domain.DLS.new_key";
      "Stdlib.Mutex.create";
      "Stdlib.Mutex.lock";
      "Stdlib.Mutex.t";
    ]
    (flagged
       "let x = Atomic.make 0\n\
        let m : Mutex.t = Stdlib.Mutex.create ()\n\
        let () = Mutex.lock m\n\
        let k = Domain.DLS.new_key (fun () -> 0)\n");
  Alcotest.(check (list string))
    "a module alias is flagged where it is made" [ "Stdlib.Condition" ]
    (flagged "module C = Condition\n");
  Alcotest.(check (list string))
    "only lib/ is held to it" []
    (paths (concurrency (uses_of_source ~file:"test/t.ml" "let x = Atomic.make 0\n")))

let test_allows_look_alike_names () =
  Alcotest.(check (list string))
    "look-alikes pass" []
    (flagged
       "module Atomics = struct let make x = ref x end\n\
        let x = Atomics.make 0\n\
        type t = { domain : int }\n\
        let d t = t.domain\n\
        let mutex = 1\n")

(* A module passed whole to a functor uses exactly the values the
   parameter's signature selects. *)
let test_functor_argument_counts () =
  let uses =
    uses_of_source ~file:"bin/t.ml"
      "module M : sig\n\
      \  val a : int\n\
      \  val b : int\n\
       end = struct\n\
      \  let a = 1\n\
      \  let b = 2\n\
       end\n\
       module F (X : sig val a : int end) = struct end\n\
       module N = F (M)\n"
  in
  let targets =
    List.filter_map
      (fun u -> match u.target with Some t when u.at.line = 9 -> Some t.line | _ -> None)
      uses
  in
  Alcotest.(check (list int)) "M.a used through F, M.b not" [ 2 ] targets

let decl ?(marked = false) name line =
  { site = { file = "lib/a/m.mli"; line }; name; marked }

let use file line =
  { at = { file; line = 1 }; path = "M.x"; target = Some { file = "lib/a/m.mli"; line } }

let test_dead_exports () =
  let decls =
    [
      decl "from_bin" 1;
      decl "from_lib" 2;
      decl "test_only_use" 3;
      decl "own_use" 4;
      decl ~marked:true "marked" 5;
      decl "unused" 6;
      decl "from_bench" 7;
    ]
  in
  let uses =
    [
      use "bin/main.ml" 1;
      use "lib/b/n.ml" 2;
      use "test/t.ml" 3;
      use "test/oracles/o.ml" 3;
      use "lib/a/m.ml" 4;
      use "test/t.ml" 5;
      use "bench/b.ml" 7;
    ]
  in
  Alcotest.(check (list string))
    "flagged" [ "test_only_use"; "own_use"; "unused" ]
    (List.map (fun d -> d.name) (dead_exports decls uses))

let test_tree_is_clean () =
  (* dune runs the test inside the build tree, whose annotation files
     the test's dependency on [@check] brings up to date *)
  match scan ~root:".." with
  | Error msg -> Alcotest.fail msg
  | Ok { decls; uses } ->
    let show = List.map (fun (s : site) -> Printf.sprintf "%s:%d" s.file s.line) in
    Alcotest.(check (list string))
      "no concurrency primitive in lib/" []
      (show (List.map (fun u -> u.at) (concurrency uses)));
    Alcotest.(check (list string))
      "every lib/ val has a production caller" []
      (show (List.map (fun d -> d.site) (dead_exports decls uses)))

let () =
  Alcotest.run "lint"
    [
      ( "source lint",
        [
          Alcotest.test_case "flags raw primitives" `Quick test_flags_raw_primitives;
          Alcotest.test_case "allows look-alike names" `Quick
            test_allows_look_alike_names;
          Alcotest.test_case "functor argument counts" `Quick
            test_functor_argument_counts;
          Alcotest.test_case "dead exports" `Quick test_dead_exports;
          Alcotest.test_case "repo tree is clean" `Quick test_tree_is_clean;
        ] );
    ]
