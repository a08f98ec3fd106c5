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
  epoll_timeout : Engine.Sim_time.t;
  max_events : int;
  filter_order : filter list;
  schedule_at_loop_end : bool;
  kernel_bytecode : bool;
  kernel_jit : bool;
}

let default =
  {
    avail_threshold = Engine.Sim_time.ms 100;
    theta_ratio = 0.5;
    min_selected = 2;
    epoll_timeout = Engine.Sim_time.ms 5;
    max_events = 64;
    filter_order = [ By_time; By_conn; By_event ];
    schedule_at_loop_end = true;
    kernel_bytecode = false;
    kernel_jit = false;
  }

let pp fmt t =
  Format.fprintf fmt
    "{thr=%a theta=%.2f min_sel=%d timeout=%a max_ev=%d order=[%s] at_end=%b vm=%b jit=%b}"
    Engine.Sim_time.pp t.avail_threshold t.theta_ratio t.min_selected
    Engine.Sim_time.pp t.epoll_timeout t.max_events
    (String.concat ";" (List.map Trace.stage_name t.filter_order))
    t.schedule_at_loop_end t.kernel_bytecode t.kernel_jit
