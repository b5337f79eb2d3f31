type config = {
  period : Time.t;
  probes_per_source : int;
  harvest_after : Time.t;
  stagger : Time.t;
}

(* A group's listeners in registration order, indexed by host so that
   a delivery finds its listener without scanning. *)
type roster = {
  mutable hosts : Host_ref.t array;  (** the first [count] are live *)
  mutable count : int;
  index : Packed_map.t;  (** [Host_ref.key] -> registration index *)
}

(* One source's matrix cells toward its group's listeners, in roster
   order, resolved once per (source, group) and extended only when the
   roster grows.  Rosters only grow at the end, so the cells of a
   probe's expected receivers are a prefix of the row. *)
type row = {
  r_src : Host_ref.t;
  r_group : Ipv4.t;
  mutable r_slots : Beacon_matrix.slot array;
}

(* A probe in its accounting window: sent, not yet harvested.  Its
   expected receivers are the first [p_expected] listeners of the
   group's roster (rosters only grow at the end). *)
type pending = {
  p_src : Host_ref.t;
  p_group : Ipv4.t;
  p_seq : int;
  p_sent_at : Time.t;
  p_span : Span.t option;
  p_roster : roster;
  p_expected : int;
  p_slots : Beacon_matrix.slot array;
      (** matrix cell per expected receiver: its source's row, at
          least [p_expected] long *)
  p_heard : Bytes.t;  (** bitset over registration indices *)
  mutable p_missing : int;  (** expected receivers not yet heard from *)
}

type t = {
  engine : Engine.t;
  topo : Topo.t;
  fabric : Bgmp_fabric.t;
  cfg : config;
  matrix : Beacon_matrix.t;
  listeners : (Ipv4.t, roster) Hashtbl.t;
  mutable sources : (Ipv4.t * Host_ref.t) list;  (** reverse registration order *)
  pending : (int, pending) Hashtbl.t;  (** by payload id *)
  spf : (Domain.id, Spf.paths) Hashtbl.t;  (** BFS memo per source domain *)
  mutable n_sent : int;
  mutable n_delivered : int;
  mutable n_lost : int;
  mutable last_harvest : Time.t;
  m_sent : Metrics.counter;
  m_delivered : Metrics.counter;
  m_lost : Metrics.counter;
  m_outstanding : Metrics.gauge;
}

(* A narrative record in the ambient recorder.  Every call is guarded
   by [Recorder.is_enabled ()], so while the recorder is off a site is
   one flag test: no argument is built and nothing is formatted. *)
let btrace t ?span tag fmt =
  Recorder.recordf ~time:(Engine.now t.engine) ~label:tag ~subject:"beacon" ?span fmt

let heard p i = Char.code (Bytes.get p.p_heard (i lsr 3)) land (1 lsl (i land 7)) <> 0

let mark_heard p i =
  let b = i lsr 3 in
  Bytes.set p.p_heard b (Char.chr (Char.code (Bytes.get p.p_heard b) lor (1 lsl (i land 7))))

let spf_dist t ~from ~to_ =
  if from = to_ then 0
  else begin
    let paths =
      match Hashtbl.find t.spf from with
      | p -> p
      | exception Not_found ->
          let p = Spf.bfs t.topo from in
          Hashtbl.replace t.spf from p;
          p
    in
    Spf.dist paths to_
  end

let on_delivery t ~group:_ ~source:_ ~payload ~host ~hops =
  match Hashtbl.find t.pending payload with
  | exception Not_found -> ()  (* not a probe, or already harvested: a straggler stays lost *)
  | p ->
      let i = Packed_map.find p.p_roster.index (Host_ref.key host) in
      if i >= 0 && i < p.p_expected && not (heard p i) then begin
        mark_heard p i;
        p.p_missing <- p.p_missing - 1;
        t.n_delivered <- t.n_delivered + 1;
        Metrics.incr t.m_delivered;
        let latency = Engine.now t.engine -. p.p_sent_at in
        Beacon_matrix.deliver_slot p.p_slots.(i) ~latency ~hops
          ~spf_dist:
            (spf_dist t ~from:p.p_src.Host_ref.host_domain ~to_:host.Host_ref.host_domain)
      end

let create ~engine ~topo ~fabric ~config =
  let t =
    {
      engine;
      topo;
      fabric;
      cfg = config;
      matrix = Beacon_matrix.create ();
      listeners = Hashtbl.create 16;
      sources = [];
      pending = Hashtbl.create 256;
      spf = Hashtbl.create 16;
      n_sent = 0;
      n_delivered = 0;
      n_lost = 0;
      last_harvest = Time.zero;
      m_sent = Metrics.counter "beacon.probes_sent";
      m_delivered = Metrics.counter "beacon.deliveries";
      m_lost = Metrics.counter "beacon.lost";
      m_outstanding = Metrics.gauge "beacon.probes_outstanding";
    }
  in
  Bgmp_fabric.set_on_delivery fabric
    (Some (fun ~group ~source ~payload ~host ~hops -> on_delivery t ~group ~source ~payload ~host ~hops));
  t

let roster_of t group =
  match Hashtbl.find_opt t.listeners group with
  | Some r -> r
  | None ->
      let r = { hosts = [||]; count = 0; index = Packed_map.create () } in
      Hashtbl.replace t.listeners group r;
      r

let add_listener t ~group ~host =
  Bgmp_fabric.host_join t.fabric ~host ~group;
  let r = roster_of t group in
  if r.count = Array.length r.hosts then begin
    let grown = Array.make (max 8 (2 * r.count)) host in
    Array.blit r.hosts 0 grown 0 r.count;
    r.hosts <- grown
  end;
  r.hosts.(r.count) <- host;
  Packed_map.set r.index (Host_ref.key host) r.count;
  r.count <- r.count + 1

let add_source t ~group ~host = t.sources <- (group, host) :: t.sources

let harvest t payload =
  match Hashtbl.find_opt t.pending payload with
  | None -> ()
  | Some p ->
      let missing = p.p_missing in
      if missing > 0 then begin
        t.n_lost <- t.n_lost + missing;
        Metrics.add t.m_lost missing;
        (* Lost pairs stay as (sent > got) cells; the recording names
           them, in listener registration order. *)
        if Recorder.is_enabled () then
          for i = 0 to p.p_expected - 1 do
            if not (heard p i) then
              btrace t ?span:p.p_span "probe-lost" "%a seq %d payload %d never reached %a"
                Ipv4.pp p.p_group p.p_seq payload Host_ref.pp p.p_roster.hosts.(i)
          done
      end;
      Hashtbl.remove t.pending payload;
      Metrics.set t.m_outstanding (float_of_int (Hashtbl.length t.pending));
      Bgmp_fabric.forget_payload t.fabric ~payload

(* The row's cells toward the first [count] listeners of [r]. *)
let extend_row t row r =
  let have = Array.length row.r_slots in
  if have < r.count then
    row.r_slots <-
      Array.init r.count (fun i ->
          if i < have then row.r_slots.(i)
          else Beacon_matrix.slot t.matrix ~src:row.r_src ~dst:r.hosts.(i))

let fire_probe t row ~seq =
  let group = row.r_group and host = row.r_src in
  let span =
    if Recorder.is_enabled () then
      Some (Bgmp_fabric.group_span t.fabric host.Host_ref.host_domain group)
    else None
  in
  let r = roster_of t group in
  let expected = r.count in
  let payload = Bgmp_fabric.next_payload_id t.fabric in
  extend_row t row r;
  let slots = row.r_slots in
  for i = 0 to expected - 1 do
    Beacon_matrix.expect_slot slots.(i)
  done;
  let p =
    {
      p_src = host;
      p_group = group;
      p_seq = seq;
      p_sent_at = Engine.now t.engine;
      p_span = span;
      p_roster = r;
      p_expected = expected;
      p_slots = slots;
      p_heard = Bytes.make ((expected + 7) / 8) '\000';
      p_missing = expected;
    }
  in
  Hashtbl.replace t.pending payload p;
  t.n_sent <- t.n_sent + 1;
  Metrics.incr t.m_sent;
  Metrics.set t.m_outstanding (float_of_int (Hashtbl.length t.pending));
  if Recorder.is_enabled () then
    btrace t ?span "probe" "%a seq %d payload %d from %a (%d receivers)" Ipv4.pp group seq
      payload Host_ref.pp host expected;
  let sent = Bgmp_fabric.send ?span t.fabric ~source:host ~group in
  assert (sent = payload);
  ignore
    (Engine.schedule_after ~label:"beacon.harvest" t.engine t.cfg.harvest_after (fun () ->
         harvest t sent))

let start t ~at =
  if at < Engine.now t.engine then invalid_arg "Beacon.start: start time in the past";
  let sources = List.rev t.sources in
  List.iteri
    (fun i (group, host) ->
      let row = { r_src = host; r_group = group; r_slots = [||] } in
      for k = 0 to t.cfg.probes_per_source - 1 do
        let when_ =
          at +. (float_of_int i *. t.cfg.stagger) +. (float_of_int k *. t.cfg.period)
        in
        let harvest_done = when_ +. t.cfg.harvest_after in
        if harvest_done > t.last_harvest then t.last_harvest <- harvest_done;
        ignore
          (Engine.schedule_at ~label:"beacon.probe" t.engine when_ (fun () ->
               fire_probe t row ~seq:k))
      done)
    sources

let last_harvest_at t = t.last_harvest

let matrix t = t.matrix

let probes_sent t = t.n_sent

let deliveries t = t.n_delivered

let lost t = t.n_lost

let register_series t ts =
  Timeseries.register ts "beacon.probes_outstanding" (fun () ->
      float_of_int (Hashtbl.length t.pending));
  Timeseries.register ts "beacon.probes_sent" (fun () -> float_of_int t.n_sent);
  Timeseries.register ts "beacon.deliveries" (fun () -> float_of_int t.n_delivered);
  Timeseries.register ts "beacon.lost" (fun () -> float_of_int t.n_lost)
