(* Reference water-filling: the level-by-level rescan the fluid tier ran
   before the heap-ordered kernel ({!Waterfill}). Every level scans every
   loaded link for the least share [rem / cnt], marks every link at that
   share as a bottleneck, then scans every flow in index order and freezes
   the unfrozen ones crossing a bottleneck, subtracting the share along
   their paths. O(levels x (L + F·P)) per pass; kept only as the oracle the
   kernel must match bit for bit. *)

type result = {
  rates : float array;  (* per flow *)
  loads : float array;  (* per link: summed rates, in flow order *)
  bottlenecks : bool array;  (* per link: froze some flow *)
}

let max_min ~cap ~paths =
  let n_links = Array.length cap and n_flows = Array.length paths in
  let cnt = Array.make n_links 0 in
  Array.iter (Array.iter (fun l -> cnt.(l) <- cnt.(l) + 1)) paths;
  let parts = List.filter (fun l -> cnt.(l) > 0) (List.init n_links Fun.id) in
  let rem = Array.copy cap in
  let bott = Array.make n_links false in
  let bott_any = Array.make n_links false in
  let rates = Array.make n_flows 0. in
  let frozen = Array.make n_flows false in
  let unfrozen = ref n_flows in
  while !unfrozen > 0 do
    let s =
      List.fold_left
        (fun acc l ->
          if cnt.(l) > 0 then Float.min acc (rem.(l) /. float_of_int cnt.(l))
          else acc)
        infinity parts
    in
    if s = infinity then unfrozen := 0
    else begin
      let s = Float.max 0. s in
      List.iter
        (fun l ->
          if cnt.(l) > 0 && rem.(l) /. float_of_int cnt.(l) = s then begin
            bott.(l) <- true;
            bott_any.(l) <- true
          end)
        parts;
      Array.iteri
        (fun i p ->
          if (not frozen.(i)) && Array.exists (fun l -> bott.(l)) p then begin
            frozen.(i) <- true;
            rates.(i) <- s;
            decr unfrozen;
            Array.iter
              (fun l ->
                rem.(l) <- Float.max 0. (rem.(l) -. s);
                cnt.(l) <- cnt.(l) - 1)
              p
          end)
        paths;
      List.iter (fun l -> bott.(l) <- false) parts
    end
  done;
  let loads = Array.make n_links 0. in
  Array.iteri
    (fun i p -> Array.iter (fun l -> loads.(l) <- loads.(l) +. rates.(i)) p)
    paths;
  { rates; loads; bottlenecks = bott_any }
