let table_size = 128

type t = { table : int array; packets : int array }

let create ~queues =
  if queues <= 0 then invalid_arg "Nic.create: queues must be positive";
  {
    table = Array.init table_size (fun i -> i mod queues);
    packets = Array.make queues 0;
  }

let receive t (p : Packet.t) =
  let q = t.table.(p.flow_hash land (table_size - 1)) in
  t.packets.(q) <- t.packets.(q) + 1;
  q

let packets_per_queue t = Array.copy t.packets
