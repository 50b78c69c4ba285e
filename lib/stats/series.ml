type t = {
  title : string;
  x_label : string;
  columns : string list;
  rows : (float * float list) list;
}

let make ~title ~x_label ~columns ~rows =
  List.iter
    (fun (_, ys) ->
      if List.length ys <> List.length columns then
        invalid_arg "Series.make: row arity mismatch")
    rows;
  { title; x_label; columns; rows }

let render_table header rows =
  let all = header :: rows in
  let cols = List.length header in
  let widths = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    all;
  let line row =
    String.concat "  "
      (List.mapi
         (fun i cell -> cell ^ String.make (widths.(i) - String.length cell) ' ')
         row)
  in
  let sep =
    String.concat "  "
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  print_endline (line header);
  print_endline sep;
  List.iter (fun row -> print_endline (line row)) rows

let print ?(fmt_y = Printf.sprintf "%.3f") t =
  Printf.printf "\n== %s ==\n" t.title;
  let header = t.x_label :: t.columns in
  let rows =
    List.map
      (fun (x, ys) -> Printf.sprintf "%g" x :: List.map fmt_y ys)
      t.rows
  in
  render_table header rows;
  print_newline ()

let print_table ~title ~header rows =
  Printf.printf "\n== %s ==\n" title;
  render_table header rows;
  print_newline ()

(* Bounded time-series store: a flat ring of (time, metric, value) samples
   fed by the fabric sampler. The ring keeps the most recent [capacity]
   samples; everything is also forwarded to the optional [spill] callback as
   it arrives, so a JSONL spill file sees every sample even when the
   in-memory window wraps. *)

type sample = { t : float; metric : string; v : float }

type store = {
  cap : int;
  ring : sample array;
  mutable next : int;
  mutable seen : int;
  spill : (sample -> unit) option;
}

let nil_sample = { t = 0.; metric = ""; v = 0. }

let store ?(capacity = 65536) ?spill () =
  if capacity <= 0 then invalid_arg "Series.store: capacity must be positive";
  { cap = capacity; ring = Array.make capacity nil_sample; next = 0; seen = 0; spill }

let add st ~t ~metric ~v =
  let s = { t; metric; v } in
  (match st.spill with Some f -> f s | None -> ());
  st.ring.(st.next) <- s;
  st.next <- (st.next + 1) mod st.cap;
  st.seen <- st.seen + 1

let seen st = st.seen
let capacity st = st.cap
let dropped st = max 0 (st.seen - st.cap)

let samples st =
  let n = min st.seen st.cap in
  let start = (st.next - n + st.cap) mod st.cap in
  List.init n (fun i -> st.ring.((start + i) mod st.cap))

let mean_peak st metric =
  match
    List.filter_map
      (fun s -> if s.metric = metric then Some s.v else None)
      (samples st)
  with
  | [] -> None
  | vs -> Some (Summary.mean vs, Summary.max vs)

let sample_json { t; metric; v } =
  let num x =
    if Float.is_nan x || x = Float.infinity || x = Float.neg_infinity then
      "null"
    else Printf.sprintf "%.17g" x
  in
  Printf.sprintf {|{"t":%s,"metric":"%s","v":%s}|} (num t) metric (num v)
