type meth = GET | HEAD | POST | PUT | DELETE | OPTIONS | PATCH

let meth_of_string = function
  | "GET" -> Some GET
  | "HEAD" -> Some HEAD
  | "POST" -> Some POST
  | "PUT" -> Some PUT
  | "DELETE" -> Some DELETE
  | "OPTIONS" -> Some OPTIONS
  | "PATCH" -> Some PATCH
  | _ -> None

let meth_to_string = function
  | GET -> "GET"
  | HEAD -> "HEAD"
  | POST -> "POST"
  | PUT -> "PUT"
  | DELETE -> "DELETE"
  | OPTIONS -> "OPTIONS"
  | PATCH -> "PATCH"

type request = {
  meth : meth;
  target : string;
  version : string;
  headers : (string * string) list;
  body : string;
}

type parse_error =
  | Truncated
  | Bad_request_line of string
  | Bad_header of string
  | Unsupported_method of string

let find_crlf s from =
  let n = String.length s in
  let rec go i =
    if i + 1 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' then Some i
    else go (i + 1)
  in
  go from

let split_request_line line =
  match String.split_on_char ' ' line with
  | [ m; target; version ] when target <> "" -> Ok (m, target, version)
  | _ -> Error (Bad_request_line line)

let parse_header line =
  match String.index_opt line ':' with
  | None | Some 0 -> Error (Bad_header line)
  | Some i ->
    let name = String.lowercase_ascii (String.sub line 0 i) in
    let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
    if String.exists (fun c -> c = ' ' || c = '\t') name then Error (Bad_header line)
    else Ok (name, value)

let rec parse_headers s pos acc =
  match find_crlf s pos with
  | None -> Error Truncated
  | Some i when i = pos -> Ok (List.rev acc, pos + 2) (* blank line *)
  | Some i -> (
    let line = String.sub s pos (i - pos) in
    match parse_header line with
    | Error e -> Error e
    | Ok header -> parse_headers s (i + 2) (header :: acc))

let lookup headers name =
  let name = String.lowercase_ascii name in
  List.assoc_opt name headers

let parse_request s =
  match find_crlf s 0 with
  | None -> Error Truncated
  | Some i -> (
    let line = String.sub s 0 i in
    match split_request_line line with
    | Error e -> Error e
    | Ok (m, target, version) -> (
      match meth_of_string m with
      | None -> Error (Unsupported_method m)
      | Some meth -> (
        match parse_headers s (i + 2) [] with
        | Error e -> Error e
        | Ok (headers, body_start) ->
          let content_len =
            match lookup headers "content-length" with
            | None -> 0
            | Some v -> ( try max 0 (int_of_string (String.trim v)) with _ -> 0)
          in
          if String.length s < body_start + content_len then Error Truncated
          else
            let body = String.sub s body_start content_len in
            Ok ({ meth; target; version; headers; body }, body_start + content_len)
        )))

let header req name = lookup req.headers name
let host req = header req "host"

let path req =
  match String.index_opt req.target '?' with
  | None -> req.target
  | Some i -> String.sub req.target 0 i
