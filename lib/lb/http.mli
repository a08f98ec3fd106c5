(** Minimal HTTP/1.1 codec.

    The simulation moves request descriptors, but a reverse proxy's
    examples and routing substrate still need real message handling:
    this module parses request heads (request line + headers),
    serializes responses, and answers the questions the L7 LB asks of a
    message (host, path, upgrade intent, content length).  It
    implements the subset of RFC 9112 the examples exercise; it is not
    a general-purpose server codec. *)

type meth = GET | HEAD | POST | PUT | DELETE | OPTIONS | PATCH

val meth_to_string : meth -> string

type request = {
  meth : meth;
  target : string;  (** origin-form request target, e.g. "/a/b?q=1" *)
  version : string;  (** "HTTP/1.1" *)
  headers : (string * string) list;  (** in order, names lower-cased *)
  body : string;
}

type parse_error =
  | Truncated  (** need more bytes *)
  | Bad_request_line of string
  | Bad_header of string
  | Unsupported_method of string

val parse_request : string -> (request * int, parse_error) result
(** Parse one request from the start of the buffer; on success returns
    the request and the number of bytes consumed (head plus
    content-length body). *)

val header : request -> string -> string option
(** Case-insensitive single-header lookup. *)

val host : request -> string option
val path : request -> string
(** Target without the query string. *)

val content_length : request -> int
(** 0 when absent; -1 on a malformed value. *)

val is_websocket_upgrade : request -> bool
(** Connection: upgrade + Upgrade: websocket — the request class that
    triggered the HTTP/2 crash anecdote of §7. *)

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

val response : ?headers:(string * string) list -> ?body:string -> int -> response
(** Build a response; the reason phrase is derived from the status and
    a Content-Length header is added. *)

val serialize_response : response -> string
val serialize_request : request -> string

val status_reason : int -> string
(** "OK", "Bad Gateway", ... ; "Unknown" for unlisted codes.  Includes
    499, the client-closed-request status §6.2 mentions. *)
