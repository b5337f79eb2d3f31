(* Per-range allocation state: a bump pointer plus a free list of
   returned addresses.  Ranges are keyed by their claim prefix; when the
   MASC node reports a range lost, every live allocation inside it is
   invalidated and counted as a renumbering event. *)

type range_pool = { mutable range : Prefix.t; mutable next_addr : Ipv4.t; mutable freed : int list }

type allocation = { address : Ipv4.t; from_range : Prefix.t; alloc_lifetime_end : Time.t }

type t = {
  engine : Engine.t;
  node : Masc_node.t;
  pools : (Prefix.t, range_pool) Hashtbl.t;
  live : (Ipv4.t, Prefix.t) Hashtbl.t;
}

let reset t =
  Hashtbl.reset t.pools;
  Hashtbl.reset t.live

let create ~engine ~node =
  let t =
    {
      engine;
      node;
      pools = Hashtbl.create 4;
      live = Hashtbl.create 64;
    }
  in
  Masc_node.add_on_replaced node (fun ~old_prefix ~by ->
      (* A doubled range keeps every existing assignment valid: grow the
         pool in place.  If the old range was the upper buddy, the fresh
         lower half is skipped (the bump pointer only moves up). *)
      match Hashtbl.find_opt t.pools old_prefix with
      | None -> ()
      | Some pool ->
          Hashtbl.remove t.pools old_prefix;
          pool.range <- by;
          Hashtbl.replace t.pools by pool;
          Hashtbl.iter
            (fun addr range ->
              if Prefix.equal range old_prefix then Hashtbl.replace t.live addr by)
            (Hashtbl.copy t.live));
  Masc_node.add_on_lost node (fun prefix ->
      (* Invalidate allocations in the lost range. *)
      match Hashtbl.find_opt t.pools prefix with
      | None -> ()
      | Some pool ->
          let victims =
            Hashtbl.fold
              (fun addr range acc -> if Prefix.equal range prefix then addr :: acc else acc)
              t.live []
          in
          List.iter (Hashtbl.remove t.live) victims;
          ignore pool;
          Hashtbl.remove t.pools prefix;
          Masc_node.note_assigned node prefix (-List.length victims));
  reset t;
  t

let sync_pools t =
  List.iter
    (fun (claim : Masc_node.own_claim) ->
      if not (Hashtbl.mem t.pools claim.Masc_node.claim_prefix) then begin
        (* Never create a pool overlapping an existing one (a consolidated
           or doubled range can cover an old pool still draining). *)
        let overlapping =
          Hashtbl.fold
            (fun _ pool acc -> acc || Prefix.overlaps pool.range claim.Masc_node.claim_prefix)
            t.pools false
        in
        if not overlapping then
          Hashtbl.replace t.pools claim.Masc_node.claim_prefix
            {
              range = claim.Masc_node.claim_prefix;
              next_addr = Prefix.base claim.Masc_node.claim_prefix;
              freed = [];
            }
      end)
    (Masc_node.acquired_ranges t.node)

let range_lifetime t prefix =
  let claims = Masc_node.acquired_ranges t.node in
  match
    List.find_opt (fun (c : Masc_node.own_claim) -> Prefix.equal c.Masc_node.claim_prefix prefix) claims
  with
  | Some c -> Some c.Masc_node.claim_lifetime_end
  | None -> None

let allocate t =
  sync_pools t;
  (* Prefer the fullest pool so draining ranges empty out. *)
  let candidates =
    Hashtbl.fold
      (fun _ pool acc ->
        let free = Prefix.last pool.range - pool.next_addr + 1 + List.length pool.freed in
        if free > 0 then (free, pool) :: acc else acc)
      t.pools []
    |> List.sort (fun (fa, a) (fb, b) ->
           let c = compare fa fb in
           if c <> 0 then c else Prefix.compare a.range b.range)
  in
  match candidates with
  | [] ->
      Masc_node.request_space t.node ~need:Demand.block_size;
      None
  | (_, pool) :: _ ->
      let address =
        match pool.freed with
        | a :: rest ->
            pool.freed <- rest;
            a
        | [] ->
            let a = pool.next_addr in
            pool.next_addr <- pool.next_addr + 1;
            a
      in
      Hashtbl.replace t.live address pool.range;
      Masc_node.note_assigned t.node pool.range 1;
      let alloc_lifetime_end =
        Option.value ~default:(Engine.now t.engine) (range_lifetime t pool.range)
      in
      Some { address; from_range = pool.range; alloc_lifetime_end }

let release t alloc =
  match Hashtbl.find_opt t.live alloc.address with
  | None -> invalid_arg "Maas.release: address not live (double release?)"
  | Some range ->
      Hashtbl.remove t.live alloc.address;
      Masc_node.note_assigned t.node range (-1);
      (match Hashtbl.find_opt t.pools range with
      | Some pool -> pool.freed <- alloc.address :: pool.freed
      | None -> ())

let in_use t = Hashtbl.length t.live
