(* The delivery matrix's end-of-campaign summary in its copying form,
   kept as the differential oracle for [Beacon_campaign.run] and
   [Beacon_matrix.summary], which read a one-trial matrix directly and
   find a reverse pair by binary search:

   - every trial's matrix is merged into a fresh one, even a single
     trial's;
   - the cells are sorted as a list (shuffled first, so the sort does
     real work whatever order the snapshot is in);
   - the summary looks a cell's reverse pair up in a table keyed by
     (src, dst) tuples, filled in list order.

   Everything here goes through public accessors only. *)

open Beacon_matrix

let compare_cells a b =
  match Host_ref.compare a.c_src b.c_src with 0 -> Host_ref.compare a.c_dst b.c_dst | c -> c

let shuffle ~seed l =
  let rng = Random.State.make [| seed |] in
  List.map snd (List.sort compare (List.map (fun c -> (Random.State.bits rng, c)) l))

let cells matrices =
  let merged = Beacon_matrix.create () in
  List.iter (fun m -> Beacon_matrix.merge_into ~into:merged m) matrices;
  List.sort compare_cells (shuffle ~seed:1 (Beacon_matrix.cells merged))

let summary cs =
  let sent = List.fold_left (fun a c -> a + c.c_sent) 0 cs in
  let got = List.fold_left (fun a c -> a + c.c_got) 0 cs in
  let unreachable = List.length (List.filter (fun c -> c.c_sent > 0 && c.c_got = 0) cs) in
  let by_pair = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace by_pair (c.c_src, c.c_dst) c.c_loss) cs;
  let asym =
    List.fold_left
      (fun n c ->
        if Host_ref.compare c.c_src c.c_dst < 0 then
          match Hashtbl.find_opt by_pair (c.c_dst, c.c_src) with
          | Some back when Float.abs (back -. c.c_loss) > 1e-9 -> n + 1
          | Some _ | None -> n
        else n)
      0 cs
  in
  let wsum f = List.fold_left (fun a c -> a +. (f c *. float_of_int c.c_got)) 0.0 cs in
  let fmax f = List.fold_left (fun a c -> Float.max a (f c)) 0.0 cs in
  {
    s_pairs = List.length cs;
    s_sent = sent;
    s_got = got;
    s_lost = sent - got;
    s_loss = (if sent = 0 then 0.0 else float_of_int (sent - got) /. float_of_int sent);
    s_unreachable = unreachable;
    s_asymmetric = asym;
    s_complete = sent > 0 && got = sent;
    s_lat_mean = (if got = 0 then 0.0 else wsum (fun c -> c.c_lat_mean) /. float_of_int got);
    s_lat_max = fmax (fun c -> c.c_lat_max);
    s_stretch_mean =
      (if got = 0 then 0.0 else wsum (fun c -> c.c_stretch_mean) /. float_of_int got);
    s_stretch_max = fmax (fun c -> c.c_stretch_max);
  }
