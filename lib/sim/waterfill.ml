(* Heap-ordered progressive filling. See the .mli for the algorithm and the
   bit-identity argument; here, the layout. Per-link and per-flow scratch
   lives in flat arrays ([Float.Array] for floats, so writes never box),
   sized to the largest instance seen. The flows crossing each link are
   kept in CSR form ([first]/[members]). Heap keys are lazily invalidated:
   every push takes a fresh seq, [stamp.(l)] records the seq of link [l]'s
   live key, and a popped key whose seq differs is stale. *)

type t = {
  mutable rem : Float.Array.t;  (* link: unallocated capacity *)
  mutable load : Float.Array.t;  (* link: summed rate *)
  mutable cnt : int array;  (* link: unfrozen flows crossing it *)
  mutable stamp : int array;  (* link: seq of its live heap key, 0 if none *)
  mutable mark : int array;  (* link: last level that touched it *)
  mutable bott : bool array;  (* link: froze some flow *)
  mutable first : int array;
      (* link l's flows: members.(first.(l) .. first.(l + 1) - 1) *)
  mutable cursor : int array;  (* CSR fill positions *)
  mutable members : int array;
  mutable level_links : int array;  (* bottleneck links of the current level *)
  mutable touched : int array;  (* links re-keyed after the current level *)
  mutable rate : Float.Array.t;  (* flow: allocated rate *)
  mutable frozen : bool array;  (* flow *)
  mutable level_flows : int array;  (* flows frozen at the current level *)
  heap : int Eheap.t;  (* links keyed by rem / cnt, seq = stamp *)
  mutable seq : int;
}

let create () =
  {
    rem = Float.Array.create 0;
    load = Float.Array.create 0;
    cnt = [||];
    stamp = [||];
    mark = [||];
    bott = [||];
    first = [||];
    cursor = [||];
    members = [||];
    level_links = [||];
    touched = [||];
    rate = Float.Array.create 0;
    frozen = [||];
    level_flows = [||];
    heap = Eheap.create ~dummy:(-1) ();
    seq = 0;
  }

(* Buffers are refilled by every pass, so growing discards their contents. *)
let size_for n = max 64 (2 * n)
let ints a n = if Array.length a >= n then a else Array.make (size_for n) 0
let bools a n = if Array.length a >= n then a else Array.make (size_for n) false

let floats a n =
  if Float.Array.length a >= n then a else Float.Array.make (size_for n) 0.

let reserve t ~n_links ~n_flows ~n_hops =
  t.rem <- floats t.rem n_links;
  t.load <- floats t.load n_links;
  t.cnt <- ints t.cnt n_links;
  t.stamp <- ints t.stamp n_links;
  t.mark <- ints t.mark n_links;
  t.bott <- bools t.bott n_links;
  t.first <- ints t.first (n_links + 1);
  t.cursor <- ints t.cursor n_links;
  t.members <- ints t.members n_hops;
  t.level_links <- ints t.level_links n_links;
  t.touched <- ints t.touched n_links;
  t.rate <- floats t.rate n_flows;
  t.frozen <- bools t.frozen n_flows;
  t.level_flows <- ints t.level_flows n_flows

let push t l =
  t.seq <- t.seq + 1;
  t.stamp.(l) <- t.seq;
  Eheap.add t.heap
    ~time:(Float.Array.get t.rem l /. float_of_int t.cnt.(l))
    ~seq:t.seq l

(* Pops every live key equal to the minimum into [level_links], dropping
   stale keys on the way; returns the level's key and its link count (0
   when no live key is left). *)
let pop_level t =
  let h = t.heap in
  let s = ref infinity and nb = ref 0 and continue = ref true in
  while !continue && not (Eheap.is_empty h) do
    let key = Eheap.min_time h in
    if !nb > 0 && key <> !s then continue := false
    else begin
      let seq = Eheap.min_seq h in
      let l = Eheap.pop_min h in
      if t.stamp.(l) = seq then begin
        s := key;
        t.level_links.(!nb) <- l;
        incr nb
      end
    end
  done;
  (!s, !nb)

let solve t ~cap ~n_links ~paths ~n_flows =
  let n_hops = ref 0 in
  for i = 0 to n_flows - 1 do
    n_hops := !n_hops + Array.length paths.(i)
  done;
  reserve t ~n_links ~n_flows ~n_hops:!n_hops;
  let rem = t.rem and cnt = t.cnt and first = t.first in
  Array.fill cnt 0 n_links 0;
  Array.fill t.mark 0 n_links (-1);
  Array.fill t.bott 0 n_links false;
  Float.Array.fill t.load 0 n_links 0.;
  for i = 0 to n_flows - 1 do
    Float.Array.set t.rate i 0.;
    t.frozen.(i) <- false;
    let p = paths.(i) in
    for j = 0 to Array.length p - 1 do
      cnt.(p.(j)) <- cnt.(p.(j)) + 1
    done
  done;
  first.(0) <- 0;
  for l = 0 to n_links - 1 do
    first.(l + 1) <- first.(l) + cnt.(l);
    t.cursor.(l) <- first.(l)
  done;
  for i = 0 to n_flows - 1 do
    let p = paths.(i) in
    for j = 0 to Array.length p - 1 do
      let l = p.(j) in
      t.members.(t.cursor.(l)) <- i;
      t.cursor.(l) <- t.cursor.(l) + 1
    done
  done;
  Eheap.clear t.heap;
  t.seq <- 0;
  for l = 0 to n_links - 1 do
    if cnt.(l) > 0 then begin
      Float.Array.set rem l (Float.Array.get cap l);
      push t l
    end
  done;
  let unfrozen = ref n_flows and level = ref 0 in
  while !unfrozen > 0 do
    let s, nb = pop_level t in
    if nb = 0 || s = infinity then
      (* No constraining link left (every remaining flow has an empty path
         or only unbounded shares): the rest stay at zero. *)
      unfrozen := 0
    else begin
      let s = Float.max 0. s in
      let k = ref 0 in
      for b = 0 to nb - 1 do
        let l = t.level_links.(b) in
        t.bott.(l) <- true;
        for m = first.(l) to first.(l + 1) - 1 do
          let i = t.members.(m) in
          if not t.frozen.(i) then begin
            t.frozen.(i) <- true;
            t.level_flows.(!k) <- i;
            incr k
          end
        done
      done;
      incr level;
      let nt = ref 0 in
      for q = 0 to !k - 1 do
        let i = t.level_flows.(q) in
        Float.Array.set t.rate i s;
        let p = paths.(i) in
        for j = 0 to Array.length p - 1 do
          let l = p.(j) in
          Float.Array.set rem l (Float.max 0. (Float.Array.get rem l -. s));
          cnt.(l) <- cnt.(l) - 1;
          if t.mark.(l) <> !level then begin
            t.mark.(l) <- !level;
            t.touched.(!nt) <- l;
            incr nt
          end
        done
      done;
      unfrozen := !unfrozen - !k;
      for q = 0 to !nt - 1 do
        let l = t.touched.(q) in
        (* a link left with no unfrozen flow drops its key *)
        if cnt.(l) > 0 then push t l else t.stamp.(l) <- 0
      done
    end
  done;
  for i = 0 to n_flows - 1 do
    let r = Float.Array.get t.rate i and p = paths.(i) in
    for j = 0 to Array.length p - 1 do
      let l = p.(j) in
      Float.Array.set t.load l (Float.Array.get t.load l +. r)
    done
  done

let rates t = t.rate
let loads t = t.load
let bottleneck t l = t.bott.(l)
