(** Minimal HTTP/1.1 request parser.

    The simulation moves request descriptors, but a reverse proxy's
    examples and routing substrate still need real message handling:
    this module parses request heads (request line + headers, plus a
    content-length body) and answers the questions the L7 router asks
    of a message (host, path).  It implements the subset of RFC 9112
    the examples exercise; it is not a general-purpose server codec. *)

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

val host : request -> string option
(** The Host header, looked up case-insensitively. *)

val path : request -> string
(** Target without the query string. *)
