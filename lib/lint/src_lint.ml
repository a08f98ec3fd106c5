(* Source lint: the engine and trace libraries run on one domain and
   hold no concurrency primitive.  Any [Atomic.] / [Mutex.] /
   [Condition.] / [Domain.] use there is a build failure ([hermes_sim
   verify] and CI), so shared-memory concurrency cannot come back into
   them unreviewed.

   The scan is token-based on comment- and string-stripped source: a
   forbidden module name followed by a dot counts wherever it starts a
   path component, so [Stdlib.Mutex.create] fails as well as
   [Mutex.create], while [Atomics.get] or [t.domain] do not. *)

type violation = { file : string; line : int; token : string; context : string }

(* Replace comments (nested, with OCaml's string-aware lexing inside),
   string literals, quoted-string literals [{id|...|id}] and char
   literals with spaces, preserving newlines so line numbers
   survive. *)
let strip src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let is_quote_id c = (c >= 'a' && c <= 'z') || c = '_' in
  (* quoted-string opener (brace, id, pipe) at [i]: the delimiter id *)
  let quoted_opener i =
    if i < n && src.[i] = '{' then begin
      let j = ref (i + 1) in
      while !j < n && is_quote_id src.[!j] do
        incr j
      done;
      if !j < n && src.[!j] = '|' then Some (String.sub src (i + 1) (!j - i - 1))
      else None
    end
    else None
  in
  let rec code i =
    if i < n then
      if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
        blank i;
        blank (i + 1);
        comment (i + 2) 1
      end
      else if src.[i] = '"' then begin
        blank i;
        string_lit i (i + 1)
      end
      else
        match quoted_opener i with
        | Some id ->
          blank i;
          quoted_lit id (i + 1)
        | None ->
          if src.[i] = '\'' then char_lit i
          else code (i + 1)
  and comment i depth =
    if i >= n then ()
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
      blank i;
      blank (i + 1);
      comment (i + 2) (depth + 1)
    end
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then begin
      blank i;
      blank (i + 1);
      if depth = 1 then code (i + 2) else comment (i + 2) (depth - 1)
    end
    else if src.[i] = '"' then begin
      (* string literals are lexed (and must close) inside comments *)
      blank i;
      in_comment_string (i + 1) depth
    end
    else begin
      blank i;
      comment (i + 1) depth
    end
  and in_comment_string i depth =
    if i >= n then ()
    else if src.[i] = '\\' && i + 1 < n then begin
      blank i;
      blank (i + 1);
      in_comment_string (i + 2) depth
    end
    else if src.[i] = '"' then begin
      blank i;
      comment (i + 1) depth
    end
    else begin
      blank i;
      in_comment_string (i + 1) depth
    end
  and string_lit start i =
    if i >= n then ()
    else if src.[i] = '\\' && i + 1 < n then begin
      blank i;
      blank (i + 1);
      string_lit start (i + 2)
    end
    else if src.[i] = '"' then begin
      blank i;
      code (i + 1)
    end
    else begin
      blank i;
      string_lit start (i + 1)
    end
  and quoted_lit id i =
    let close = "|" ^ id ^ "}" in
    let cl = String.length close in
    if i + cl <= n && String.sub src i cl = close then begin
      for k = i to i + cl - 1 do
        blank k
      done;
      code (i + cl)
    end
    else if i >= n then ()
    else begin
      blank i;
      quoted_lit id (i + 1)
    end
  and char_lit i =
    (* ['] is a char literal ['x'] / ['\n'] / ['\xhh'], or a type
       variable quote ['a] — only the literal forms are blanked *)
    if i + 2 < n && src.[i + 1] <> '\\' && src.[i + 1] <> '\'' && src.[i + 2] = '\''
    then begin
      blank i;
      blank (i + 1);
      blank (i + 2);
      code (i + 3)
    end
    else if i + 1 < n && src.[i + 1] = '\\' then begin
      (* escaped char: scan to the closing quote (bounded) *)
      let j = ref (i + 2) in
      while !j < n && !j < i + 6 && src.[!j] <> '\'' do
        incr j
      done;
      if !j < n && src.[!j] = '\'' then begin
        for k = i to !j do
          blank k
        done;
        code (!j + 1)
      end
      else code (i + 1)
    end
    else code (i + 1)
  in
  code 0;
  Bytes.to_string out

let is_ident_char c =
  (c >= 'A' && c <= 'Z')
  || (c >= 'a' && c <= 'z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let forbidden_modules = [ "Atomic"; "Mutex"; "Condition"; "Domain" ]

let line_of text i =
  let l = ref 1 in
  for k = 0 to i - 1 do
    if text.[k] = '\n' then incr l
  done;
  !l

let context_of text i =
  let b = ref i and e = ref i in
  while !b > 0 && text.[!b - 1] <> '\n' do
    decr b
  done;
  while !e < String.length text && text.[!e] <> '\n' do
    incr e
  done;
  String.trim (String.sub text !b (!e - !b))

let scan_source ~file src =
  let text = strip src in
  let n = String.length text in
  let hits = ref [] in
  let word_at i w =
    let wl = String.length w in
    i + wl <= n
    && String.sub text i wl = w
    && (i = 0 || not (is_ident_char text.[i - 1]))
  in
  for i = 0 to n - 1 do
    List.iter
      (fun m ->
        if word_at i (m ^ ".") then
          hits :=
            { file; line = line_of text i; token = m; context = context_of text i }
            :: !hits)
      forbidden_modules
  done;
  List.rev !hits

let default_dirs = [ "lib/engine"; "lib/trace" ]

let is_source f =
  Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let scan_tree ~root =
  let dirs = List.map (Filename.concat root) default_dirs in
  match List.filter Sys.file_exists dirs with
  | [] ->
    Error
      (Printf.sprintf "no source directories found under %s (looked for %s)"
         root
         (String.concat ", " default_dirs))
  | present ->
    let violations =
      List.concat_map
        (fun dir ->
          Sys.readdir dir |> Array.to_list |> List.sort compare
          |> List.filter is_source
          |> List.concat_map (fun f ->
                 let path = Filename.concat dir f in
                 scan_source ~file:path (read_file path)))
        present
    in
    Ok violations

(* ------------------------------------------------------------------ *)
(* Dead exports                                                         *)

(* A [val] in a [lib/] interface whose name no other implementation
   mentions is dead weight: either nothing calls it, or only its own
   module does and it need not be exported.  The scan is by name on
   comment- and string-stripped source, so a common name used anywhere
   counts as a use — it can miss dead exports, never invent one. *)

type dead_export = { mli : string; line : int; name : string }

let user_roots = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "test" ]

let identifiers text =
  let n = String.length text in
  let rec go i acc =
    if i >= n then acc
    else if is_ident_char text.[i] && text.[i] <> '\'' then begin
      let j = ref i in
      while !j < n && is_ident_char text.[!j] do
        incr j
      done;
      go !j ((i, String.sub text i (!j - i)) :: acc)
    end
    else go (i + 1) acc
  in
  List.rev (go 0 [])

(* [val name] declarations of an interface, with their offsets; an
   operator val ([val ( + )]) has no identifier right after [val] and
   is skipped. *)
let val_names text =
  let rec go = function
    | (v, "val") :: ((i, name) :: _ as rest)
      when String.trim (String.sub text (v + 3) (i - v - 3)) = "" ->
      (i, name) :: go rest
    | _ :: rest -> go rest
    | [] -> []
  in
  go (identifiers text)

let dead_exports ~mlis ~mls =
  (* name -> the implementations that mention it *)
  let users = Hashtbl.create 4096 in
  List.iter
    (fun (file, src) ->
      let seen = Hashtbl.create 256 in
      List.iter
        (fun (_, id) ->
          if not (Hashtbl.mem seen id) then begin
            Hashtbl.add seen id ();
            Hashtbl.add users id file
          end)
        (identifiers (strip src)))
    mls;
  List.concat_map
    (fun (mli, src) ->
      let own = Filename.remove_extension mli ^ ".ml" in
      let text = strip src in
      List.filter_map
        (fun (i, name) ->
          if List.exists (fun f -> f <> own) (Hashtbl.find_all users name) then None
          else Some { mli; line = line_of text i; name })
        (val_names text))
    mlis

(* Every file under [dir] with [suffix], depth first in name order;
   build and hidden directories are skipped. *)
let rec files_under dir ~suffix =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then
           if f.[0] = '_' || f.[0] = '.' then [] else files_under path ~suffix
         else if Filename.check_suffix f suffix then [ path ]
         else [])

let scan_dead_exports ~root =
  let under roots ~suffix =
    List.concat_map
      (fun d ->
        let dir = Filename.concat root d in
        if Sys.file_exists dir then
          List.map (fun p -> (p, read_file p)) (files_under dir ~suffix)
        else [])
      roots
  in
  match under [ "lib" ] ~suffix:".mli" with
  | [] -> Error (Printf.sprintf "no interfaces found under %s/lib" root)
  | mlis -> Ok (dead_exports ~mlis ~mls:(under user_roots ~suffix:".ml"))
