(** Shared experiment scaffolding.

    Every experiment regenerates one of the paper's tables or figures
    on a scaled-down device (default 8 workers instead of the paper's
    32, seconds instead of days) with a fixed seed; EXPERIMENTS.md
    records the scaling.  [quick] further shrinks runs for CI. *)

val seed : int
(** Global default seed (every experiment derives from it). *)

val make_device :
  ?workers:int ->
  ?tenants:int ->
  ?seed:int ->
  mode:Lb.Device.mode ->
  unit ->
  Lb.Device.t * Engine.Rng.t
(** Fresh simulator + device + workload RNG (split from the device
    RNG so dispatch and generation are independent streams). *)

val hermes_default : Lb.Device.mode
(** [Hermes Config.default]. *)

val compared_modes : (string * Lb.Device.mode) list
(** The paper's three contenders: exclusive, reuseport, hermes. *)

val all_modes : (string * Lb.Device.mode) list
(** The three above plus epoll-rr, wake-all, and the io_uring-style
    FIFO mode (§8). *)

val section : string -> string -> unit
(** Print an experiment banner: id and title. *)

val note : string -> unit
(** Print an indented footnote line. *)

val run_case :
  ?quick:bool ->
  mode:Lb.Device.mode ->
  profile:Workload.Profile.t ->
  ?workers:int ->
  ?tenants:int ->
  ?seed:int ->
  unit ->
  Workload.Driver.report
(** One standard driver run: warm-up then measure (halved in quick
    mode). *)
