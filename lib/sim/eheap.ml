(* Structure-of-arrays min-heap. [times] is an unboxed float array (OCaml
   flat-float-array representation), [seqs] an int array, [vals] the payload
   array; slot [i] of each array together forms one heap element. Key
   comparisons never dereference a boxed entry, and sift-up/down move a hole
   instead of swapping: each level costs three array writes instead of six.

   Slots >= len are dead and must not retain values: a popped event closure
   can capture packets and whole flows, so a stale reference keeps them
   alive for the life of the simulation. Dead value slots hold the
   caller-supplied [dummy]. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable vals : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy () =
  { times = [||]; seqs = [||]; vals = [||]; len = 0; dummy }

let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let ntimes = Array.make ncap nan in
  let nseqs = Array.make ncap 0 in
  let nvals = Array.make ncap t.dummy in
  Array.blit t.times 0 ntimes 0 t.len;
  Array.blit t.seqs 0 nseqs 0 t.len;
  Array.blit t.vals 0 nvals 0 t.len;
  t.times <- ntimes;
  t.seqs <- nseqs;
  t.vals <- nvals

let add t ~time ~seq v =
  if t.len = Array.length t.times then grow t;
  (* Sift the hole up from the new last slot; parents shift down into it. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = t.times.(p) in
    if time < pt || (time = pt && seq < t.seqs.(p)) then begin
      t.times.(!i) <- pt;
      t.seqs.(!i) <- t.seqs.(p);
      t.vals.(!i) <- t.vals.(p);
      i := p
    end
    else continue := false
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.vals.(!i) <- v

(* Sift the element [(time, seq, v)] down from the hole at [i], with [len]
   live slots. Shared by [pop_min] and the heapify pass in [compact]. *)
let sift_down t ~len ~time ~seq v i =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= len then continue := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < len
          && (t.times.(r) < t.times.(l)
             || (t.times.(r) = t.times.(l) && t.seqs.(r) < t.seqs.(l)))
        then r
        else l
      in
      let ct = t.times.(c) in
      if ct < time || (ct = time && t.seqs.(c) < seq) then begin
        t.times.(!i) <- ct;
        t.seqs.(!i) <- t.seqs.(c);
        t.vals.(!i) <- t.vals.(c);
        i := c
      end
      else continue := false
    end
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.vals.(!i) <- v

let[@inline] min_time t = t.times.(0)
let[@inline] min_seq t = t.seqs.(0)

let pop_min t =
  let v0 = t.vals.(0) in
  let last = t.len - 1 in
  t.len <- last;
  if last = 0 then begin
    t.times.(0) <- nan;
    t.vals.(0) <- t.dummy
  end
  else begin
    let time = t.times.(last) and seq = t.seqs.(last) in
    let v = t.vals.(last) in
    t.times.(last) <- nan;
    t.vals.(last) <- t.dummy;
    sift_down t ~len:last ~time ~seq v 0
  end;
  v0

let pop t =
  if t.len = 0 then None
  else
    let time = t.times.(0) in
    Some (time, pop_min t)

let peek_time t = if t.len = 0 then None else Some t.times.(0)

let compact t ~keep =
  (* Partition survivors to the front, clear the tail, then Floyd-heapify:
     sift each internal node down, last parent first. Surviving keys are
     untouched, so the (time, seq) pop order is exactly what it was. *)
  let n = t.len in
  let w = ref 0 in
  for r = 0 to n - 1 do
    if keep ~seq:t.seqs.(r) t.vals.(r) then begin
      if !w <> r then begin
        t.times.(!w) <- t.times.(r);
        t.seqs.(!w) <- t.seqs.(r);
        t.vals.(!w) <- t.vals.(r)
      end;
      incr w
    end
  done;
  let len = !w in
  let cap = Array.length t.times in
  if cap > 64 && 4 * len < cap then begin
    (* Live occupancy is far below capacity: shrink the backing arrays to
       2x live (floor 64) so a long run's peak RSS is not pinned at the
       pre-compaction high-water mark. Strictly smaller than [cap] here
       because cap > max(64, 4*len). *)
    let ncap = max 64 (2 * len) in
    let ntimes = Array.make ncap nan in
    let nseqs = Array.make ncap 0 in
    let nvals = Array.make ncap t.dummy in
    Array.blit t.times 0 ntimes 0 len;
    Array.blit t.seqs 0 nseqs 0 len;
    Array.blit t.vals 0 nvals 0 len;
    t.times <- ntimes;
    t.seqs <- nseqs;
    t.vals <- nvals
  end
  else
    for i = len to n - 1 do
      t.times.(i) <- nan;
      t.vals.(i) <- t.dummy
    done;
  t.len <- len;
  for i = (len / 2) - 1 downto 0 do
    sift_down t ~len ~time:t.times.(i) ~seq:t.seqs.(i) t.vals.(i) i
  done

let clear t =
  for i = 0 to t.len - 1 do
    t.times.(i) <- nan;
    t.vals.(i) <- t.dummy
  done;
  t.len <- 0

let size t = t.len
let is_empty t = t.len = 0
let capacity t = Array.length t.times
