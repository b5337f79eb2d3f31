type acc = {
  mutable sent : int;
  mutable got : int;
  lat : Stats.t;
  hops : Stats.t;
  stretch : Stats.t;
}

type t = (Host_ref.t * Host_ref.t, acc) Hashtbl.t

let create () : t = Hashtbl.create 64

let acc_for t key =
  match Hashtbl.find_opt t key with
  | Some a -> a
  | None ->
      let a = { sent = 0; got = 0; lat = Stats.create (); hops = Stats.create (); stretch = Stats.create () } in
      Hashtbl.replace t key a;
      a

type slot = acc

let slot t ~src ~dst = acc_for t (src, dst)

let expect_slot a = a.sent <- a.sent + 1

let[@inline] deliver_slot a ~latency ~hops ~spf_dist =
  a.got <- a.got + 1;
  Stats.add a.lat latency;
  Stats.add a.hops (float_of_int hops);
  let stretch = if spf_dist <= 0 then 1.0 else float_of_int hops /. float_of_int spf_dist in
  Stats.add a.stretch stretch

let merge_into ~into src =
  Hashtbl.iter
    (fun key (a : acc) ->
      match Hashtbl.find_opt into key with
      | None ->
          Hashtbl.replace into key
            {
              sent = a.sent;
              got = a.got;
              lat = Stats.merge (Stats.create ()) a.lat;
              hops = Stats.merge (Stats.create ()) a.hops;
              stretch = Stats.merge (Stats.create ()) a.stretch;
            }
      | Some b ->
          Hashtbl.replace into key
            {
              sent = b.sent + a.sent;
              got = b.got + a.got;
              lat = Stats.merge b.lat a.lat;
              hops = Stats.merge b.hops a.hops;
              stretch = Stats.merge b.stretch a.stretch;
            })
    src

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type cell = {
  c_src : Host_ref.t;
  c_dst : Host_ref.t;
  c_sent : int;
  c_got : int;
  c_loss : float;
  c_lat_mean : float;
  c_lat_max : float;
  c_hops_mean : float;
  c_hops_max : float;
  c_stretch_mean : float;
  c_stretch_max : float;
}

let cell_of (src, dst) (a : acc) =
  let smax s = if Stats.count s = 0 then 0.0 else Stats.max s in
  {
    c_src = src;
    c_dst = dst;
    c_sent = a.sent;
    c_got = a.got;
    c_loss =
      (if a.sent = 0 then 0.0 else float_of_int (a.sent - a.got) /. float_of_int a.sent);
    c_lat_mean = Stats.mean a.lat;
    c_lat_max = smax a.lat;
    c_hops_mean = Stats.mean a.hops;
    c_hops_max = smax a.hops;
    c_stretch_mean = Stats.mean a.stretch;
    c_stretch_max = smax a.stretch;
  }

let compare_pair c ~src ~dst =
  match Host_ref.compare c.c_src src with 0 -> Host_ref.compare c.c_dst dst | n -> n

let compare_cells a b = compare_pair a ~src:b.c_src ~dst:b.c_dst

(* A matrix holds each pair once, so the unstable in-place sort is
   deterministic. *)
let cells t =
  let a = Array.of_list (Hashtbl.fold (fun key acc l -> cell_of key acc :: l) t []) in
  Array.sort compare_cells a;
  Array.to_list a

type summary = {
  s_pairs : int;
  s_sent : int;
  s_got : int;
  s_lost : int;
  s_loss : float;
  s_unreachable : int;
  s_asymmetric : int;
  s_complete : bool;
  s_lat_mean : float;
  s_lat_max : float;
  s_stretch_mean : float;
  s_stretch_max : float;
}

(* The index of the last cell of the pair in [a], sorted by
   {!compare_cells}, or -1: with repeated pairs the last in list order
   wins, as in a table filled in list order. *)
let find_pair a ~src ~dst =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if compare_pair a.(mid) ~src ~dst <= 0 then lo := mid + 1 else hi := mid
  done;
  if !lo > 0 && compare_pair a.(!lo - 1) ~src ~dst = 0 then !lo - 1 else -1

let summary cs =
  (* The cells in (src, dst) order, where a pair's reverse is a binary
     search away.  {!cells} gives them sorted; anything else is sorted
     first, stably, so a repeated pair's last cell still wins and the
     float sums below run in the same order whatever order [cs] is in. *)
  let a = Array.of_list cs in
  let n = Array.length a in
  let sorted = ref true in
  for i = 1 to n - 1 do
    if compare_cells a.(i - 1) a.(i) > 0 then sorted := false
  done;
  if not !sorted then Array.stable_sort compare_cells a;
  let sent = ref 0 and got = ref 0 and unreachable = ref 0 and asym = ref 0 in
  let lat_sum = ref 0.0 and lat_max = ref 0.0 in
  let stretch_sum = ref 0.0 and stretch_max = ref 0.0 in
  for i = 0 to n - 1 do
    let c = a.(i) in
    sent := !sent + c.c_sent;
    got := !got + c.c_got;
    if c.c_sent > 0 && c.c_got = 0 then incr unreachable;
    (* Loss asymmetry between the two directions of a host pair:
       dbeacon's tell-tale for one-way filtering.  Only pairs measured
       both ways count. *)
    if Host_ref.compare c.c_src c.c_dst < 0 then begin
      let j = find_pair a ~src:c.c_dst ~dst:c.c_src in
      if j >= 0 && Float.abs (a.(j).c_loss -. c.c_loss) > 1e-9 then incr asym
    end;
    (* Delivery-weighted aggregate latency/stretch over all cells. *)
    let w = float_of_int c.c_got in
    lat_sum := !lat_sum +. (c.c_lat_mean *. w);
    stretch_sum := !stretch_sum +. (c.c_stretch_mean *. w);
    lat_max := Float.max !lat_max c.c_lat_max;
    stretch_max := Float.max !stretch_max c.c_stretch_max
  done;
  let sent = !sent and got = !got in
  {
    s_pairs = n;
    s_sent = sent;
    s_got = got;
    s_lost = sent - got;
    s_loss = (if sent = 0 then 0.0 else float_of_int (sent - got) /. float_of_int sent);
    s_unreachable = !unreachable;
    s_asymmetric = !asym;
    s_complete = sent > 0 && got = sent;
    s_lat_mean = (if got = 0 then 0.0 else !lat_sum /. float_of_int got);
    s_lat_max = !lat_max;
    s_stretch_mean = (if got = 0 then 0.0 else !stretch_sum /. float_of_int got);
    s_stretch_max = !stretch_max;
  }

let worst cs ~n =
  let cmp a b =
    match compare b.c_loss a.c_loss with
    | 0 -> (
        match compare b.c_lat_mean a.c_lat_mean with
        | 0 -> (
            match Host_ref.compare a.c_src b.c_src with
            | 0 -> Host_ref.compare a.c_dst b.c_dst
            | c -> c)
        | c -> c)
    | c -> c
  in
  List.filteri (fun i _ -> i < n) (List.sort cmp cs)

let pp_summary ppf s =
  Format.fprintf ppf
    "pairs %d  probes %d  delivered %d  lost %d (%.4f)  unreachable %d  asymmetric %d  %s@\n\
     latency mean %.6fs max %.6fs  stretch mean %.4f max %.4f"
    s.s_pairs s.s_sent s.s_got s.s_lost s.s_loss s.s_unreachable s.s_asymmetric
    (if s.s_complete then "COMPLETE" else "INCOMPLETE")
    s.s_lat_mean s.s_lat_max s.s_stretch_mean s.s_stretch_max

let pp_cells ppf cs =
  Format.fprintf ppf "%-10s %-10s %5s %5s %7s %10s %6s %8s@\n" "src" "dst" "sent" "got"
    "loss" "lat-mean" "hops" "stretch";
  List.iter
    (fun c ->
      Format.fprintf ppf "%-10s %-10s %5d %5d %7.4f %10.6f %6.2f %8.4f@\n"
        (Format.asprintf "%a" Host_ref.pp c.c_src)
        (Format.asprintf "%a" Host_ref.pp c.c_dst)
        c.c_sent c.c_got c.c_loss c.c_lat_mean c.c_hops_mean c.c_stretch_mean)
    cs

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)
(* ------------------------------------------------------------------ *)

let jf f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.9g" f

let cell_to_json c =
  Printf.sprintf
    "{\"src\": [%d, %d], \"dst\": [%d, %d], \"sent\": %d, \"got\": %d, \"loss\": %s, \
     \"lat_mean\": %s, \"lat_max\": %s, \"hops_mean\": %s, \"hops_max\": %s, \
     \"stretch_mean\": %s, \"stretch_max\": %s}"
    c.c_src.Host_ref.host_domain c.c_src.Host_ref.host_index c.c_dst.Host_ref.host_domain
    c.c_dst.Host_ref.host_index c.c_sent c.c_got (jf c.c_loss) (jf c.c_lat_mean)
    (jf c.c_lat_max) (jf c.c_hops_mean) (jf c.c_hops_max) (jf c.c_stretch_mean)
    (jf c.c_stretch_max)

let write_jsonl ?(meta = []) file cs =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Printf.sprintf "{\"meta\": {%s}}\n"
           (String.concat ", "
              (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k (jf v)) meta)));
      List.iter
        (fun c ->
          output_string oc (cell_to_json c);
          output_char oc '\n')
        cs)

let host_of = function
  | Jsonl.Array [ d; i ] -> (
      match (Jsonl.to_int d, Jsonl.to_int i) with
      | Some d, Some i -> Some (Host_ref.make d i)
      | _ -> None)
  | _ -> None

let cell_of_value v =
  let open Jsonl in
  let ( let* ) = Option.bind in
  let* c_src = field "src" host_of v in
  let* c_dst = field "dst" host_of v in
  let* c_sent = field "sent" to_int v in
  let* c_got = field "got" to_int v in
  let* c_loss = field "loss" to_float v in
  let* c_lat_mean = field "lat_mean" to_float v in
  let* c_lat_max = field "lat_max" to_float v in
  let* c_hops_mean = field "hops_mean" to_float v in
  let* c_hops_max = field "hops_max" to_float v in
  let* c_stretch_mean = field "stretch_mean" to_float v in
  let* c_stretch_max = field "stretch_max" to_float v in
  Some
    {
      c_src;
      c_dst;
      c_sent;
      c_got;
      c_loss;
      c_lat_mean;
      c_lat_max;
      c_hops_mean;
      c_hops_max;
      c_stretch_mean;
      c_stretch_max;
    }

(* A file line: the meta object or one cell. *)
let line_of_value v =
  match Jsonl.member "meta" v with
  | Some (Jsonl.Object kvs) ->
      Some
        (Either.Left
           (List.filter_map (fun (k, x) -> Option.map (fun f -> (k, f)) (Jsonl.to_float x)) kvs))
  | Some _ -> None
  | None -> Option.map Either.right (cell_of_value v)

let load_jsonl_counted file =
  let lines, bad = Jsonl.load_counted file line_of_value in
  let metas, cells = List.partition_map Fun.id lines in
  let meta = match List.rev metas with m :: _ -> m | [] -> [] in
  (meta, cells, bad)
