(* Capacity is zero or a power of two, so a slot index wraps with a mask.
   Live packets occupy [head, head + len) modulo capacity; every other
   slot holds [dummy]. *)

type t = { mutable buf : Packet.t array; mutable head : int; mutable len : int }

let dummy = Packet.dummy ()
let create () = { buf = [||]; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.buf in
  let nbuf = Array.make (max 8 (2 * cap)) dummy in
  for i = 0 to t.len - 1 do
    (* lint: allow pool-lifetime — growth moves the ring's own live packets to the new backing array *)
    nbuf.(i) <- t.buf.((t.head + i) land (cap - 1))
  done;
  t.buf <- nbuf;
  t.head <- 0

let push t pkt =
  if t.len = Array.length t.buf then grow t;
  (* lint: allow pool-lifetime — ownership transfers to the ring until popped; the popper frees, forwards or traces it *)
  t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- pkt;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Pkt_ring.pop: empty";
  let pkt = t.buf.(t.head) in
  t.buf.(t.head) <- dummy;
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  pkt

let pop_back t =
  if t.len = 0 then invalid_arg "Pkt_ring.pop_back: empty";
  let i = (t.head + t.len - 1) land (Array.length t.buf - 1) in
  let pkt = t.buf.(i) in
  t.buf.(i) <- dummy;
  t.len <- t.len - 1;
  pkt

let retained t =
  Array.fold_left (fun n p -> if p == dummy then n else n + 1) 0 t.buf
