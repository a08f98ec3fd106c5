module Mode = struct
  type t =
    | Hermes
    | Exclusive
    | Reuseport
    | Epoll_rr
    | Wake_all
    | Io_uring_fifo
    | Splice

  let all = [ Hermes; Exclusive; Reuseport; Epoll_rr; Wake_all; Io_uring_fifo; Splice ]

  let to_string = function
    | Hermes -> "hermes"
    | Exclusive -> "exclusive"
    | Reuseport -> "reuseport"
    | Epoll_rr -> "epoll-rr"
    | Wake_all -> "wake-all"
    | Io_uring_fifo -> "io_uring-fifo"
    | Splice -> "splice"

  let of_string s = List.find_opt (fun m -> String.equal (to_string m) s) all
  let names = List.map to_string all
end

type filter = Trace.stage = By_time | By_conn | By_event

type t = {
  avail_threshold : Engine.Sim_time.t;
  theta_ratio : float;
  min_selected : int;
  filter_order : filter list;
  schedule_at_loop_end : bool;
  kernel_jit : bool;
}

let default =
  {
    avail_threshold = Engine.Sim_time.ms 100;
    theta_ratio = 0.5;
    min_selected = 2;
    filter_order = [ By_time; By_conn; By_event ];
    schedule_at_loop_end = true;
    kernel_jit = false;
  }
