type t = {
  avail : int array;
  busy_cells : int array;
  conn_cells : int array;
  stalled : bool array;
}

let max_workers = 64

let create ~workers =
  if workers <= 0 || workers > max_workers then
    invalid_arg "Wst.create: workers must be in 1..64";
  {
    avail = Array.make workers 0;
    busy_cells = Array.make workers 0;
    conn_cells = Array.make workers 0;
    stalled = Array.make workers false;
  }

let workers t = Array.length t.avail

let set_stall t w stalled =
  if w < 0 || w >= Array.length t.stalled then
    invalid_arg "Wst.set_stall: worker out of range";
  t.stalled.(w) <- stalled

let set_avail t w ~now =
  if not t.stalled.(w) then begin
    t.avail.(w) <- now;
    if Trace.enabled () then
      Trace.emit (Trace.Wst_write { worker = w; column = Trace.Avail; value = now })
  end

let add_busy t w delta =
  let value = t.busy_cells.(w) + delta in
  t.busy_cells.(w) <- value;
  if Trace.enabled () then
    Trace.emit (Trace.Wst_write { worker = w; column = Trace.Busy; value })

let add_conn t w delta =
  let value = t.conn_cells.(w) + delta in
  t.conn_cells.(w) <- value;
  if Trace.enabled () then
    Trace.emit (Trace.Wst_write { worker = w; column = Trace.Conn; value })

let read_into t ~times ~events ~conns =
  let n = Array.length t.avail in
  if Array.length times < n || Array.length events < n || Array.length conns < n
  then invalid_arg "Wst.read_into: buffers smaller than the table";
  for w = 0 to n - 1 do
    Array.unsafe_set times w (Array.unsafe_get t.avail w);
    Array.unsafe_set events w (Array.unsafe_get t.busy_cells w);
    Array.unsafe_set conns w (Array.unsafe_get t.conn_cells w)
  done;
  n
