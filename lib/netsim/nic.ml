let table_size = 128

type t = {
  queues : int;
  table : int array;
  packets : int array;
  bytes : int array;
}

let create ~queues =
  if queues <= 0 then invalid_arg "Nic.create: queues must be positive";
  {
    queues;
    table = Array.init table_size (fun i -> i mod queues);
    packets = Array.make queues 0;
    bytes = Array.make queues 0;
  }

let queue_for t (p : Packet.t) = t.table.(p.flow_hash land (table_size - 1))

let receive t p =
  let q = queue_for t p in
  t.packets.(q) <- t.packets.(q) + 1;
  t.bytes.(q) <- t.bytes.(q) + Packet.size_bytes p;
  q

let packets_per_queue t = Array.copy t.packets
let bytes_per_queue t = Array.copy t.bytes

let reprogram t f =
  for slot = 0 to table_size - 1 do
    let q = f slot in
    if q < 0 || q >= t.queues then
      invalid_arg "Nic.reprogram: queue index out of range";
    t.table.(slot) <- q
  done

let reset_counters t =
  Array.fill t.packets 0 t.queues 0;
  Array.fill t.bytes 0 t.queues 0
