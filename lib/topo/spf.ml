type paths = { src : Domain.id; dist : int array; via : Domain.id array }

let m_bfs = Metrics.counter "spf.bfs_runs"

let m_dijkstra = Metrics.counter "spf.dijkstra_runs"

let m_valley_free = Metrics.counter "spf.valley_free_runs"

let m_cache_hit = Metrics.counter "spf.cache_hits"

let m_cache_miss = Metrics.counter "spf.cache_misses"

(* ------------------------------------------------------------------ *)
(* Workspace: preallocated scratch shared by the CSR kernels           *)
(* ------------------------------------------------------------------ *)

type workspace = {
  mutable q : int array;  (* FIFO ring for bfs / valley-free states *)
  mutable vf : int array;  (* per-(node, phase) distances, 3n *)
  mutable fin : bool array;  (* dijkstra settled flags, n *)
  mutable hkey : float array;  (* binary heap: keys *)
  mutable hnode : int array;  (* binary heap: node ids *)
  mutable hseq : int array;  (* binary heap: insertion seq (FIFO ties) *)
  mutable hsize : int;
  mutable hseq_next : int;
}

let make_workspace (c : Topo.csr) =
  let n = c.Topo.csr_nodes in
  let m = Array.length c.Topo.nbr in
  {
    q = Array.make (max 1 (3 * n)) 0;
    vf = Array.make (max 1 (3 * n)) 0;
    fin = Array.make (max 1 n) false;
    hkey = Array.make (max 16 (m + 1)) 0.0;
    hnode = Array.make (max 16 (m + 1)) 0;
    hseq = Array.make (max 16 (m + 1)) 0;
    hsize = 0;
    hseq_next = 0;
  }

let fit_workspace ws (c : Topo.csr) =
  let n = c.Topo.csr_nodes in
  let m = Array.length c.Topo.nbr in
  if Array.length ws.q < 3 * n then ws.q <- Array.make (3 * n) 0;
  if Array.length ws.vf < 3 * n then ws.vf <- Array.make (3 * n) 0;
  if Array.length ws.fin < n then ws.fin <- Array.make n false;
  if Array.length ws.hkey < m + 1 then begin
    ws.hkey <- Array.make (m + 1) 0.0;
    ws.hnode <- Array.make (m + 1) 0;
    ws.hseq <- Array.make (m + 1) 0
  end

let resolve_ws ws csr =
  match ws with
  | Some ws ->
      fit_workspace ws csr;
      ws
  | None -> make_workspace csr

(* Heap ordering is (key, seq) lexicographic — the same FIFO tie-break
   as the list-based reference's heap, so CSR Dijkstra settles equal-distance nodes in the
   same order as the list-based reference. *)

let heap_less ws i j =
  ws.hkey.(i) < ws.hkey.(j) || (ws.hkey.(i) = ws.hkey.(j) && ws.hseq.(i) < ws.hseq.(j))

let heap_swap ws i j =
  let k = ws.hkey.(i) and n = ws.hnode.(i) and s = ws.hseq.(i) in
  ws.hkey.(i) <- ws.hkey.(j);
  ws.hnode.(i) <- ws.hnode.(j);
  ws.hseq.(i) <- ws.hseq.(j);
  ws.hkey.(j) <- k;
  ws.hnode.(j) <- n;
  ws.hseq.(j) <- s

(* Repairs push one entry per improvement, which is not bounded by the
   edge count the initial sizing assumed — grow on demand. *)
let heap_ensure ws =
  let cap = Array.length ws.hkey in
  if ws.hsize = cap then begin
    let hkey = Array.make (2 * cap) 0.0 in
    let hnode = Array.make (2 * cap) 0 in
    let hseq = Array.make (2 * cap) 0 in
    Array.blit ws.hkey 0 hkey 0 cap;
    Array.blit ws.hnode 0 hnode 0 cap;
    Array.blit ws.hseq 0 hseq 0 cap;
    ws.hkey <- hkey;
    ws.hnode <- hnode;
    ws.hseq <- hseq
  end

let heap_push ws key node =
  heap_ensure ws;
  let i = ws.hsize in
  ws.hkey.(i) <- key;
  ws.hnode.(i) <- node;
  ws.hseq.(i) <- ws.hseq_next;
  ws.hseq_next <- ws.hseq_next + 1;
  ws.hsize <- i + 1;
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if heap_less ws !i parent then begin
      heap_swap ws !i parent;
      i := parent
    end
    else continue := false
  done

(* Removes the minimum, leaving its key/node readable via the caller
   having copied them first. *)
let heap_remove_min ws =
  ws.hsize <- ws.hsize - 1;
  if ws.hsize > 0 then begin
    heap_swap ws 0 ws.hsize;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < ws.hsize && heap_less ws l !smallest then smallest := l;
      if r < ws.hsize && heap_less ws r !smallest then smallest := r;
      if !smallest <> !i then begin
        heap_swap ws !i !smallest;
        i := !smallest
      end
      else continue := false
    done
  end

(* ------------------------------------------------------------------ *)
(* CSR kernels                                                         *)
(* ------------------------------------------------------------------ *)

(* All three kernels take an optional [alive] mask keyed by link id
   (through [csr.eid]): a dead edge is simply never relaxed.  The empty
   mask means "all alive" and keeps the unmasked hot path branch-cheap.
   The masked kernels double as the from-scratch oracles the incremental
   cache repairs are differentially tested against. *)

let mask_of = function Some a when Array.length a > 0 -> a | Some _ | None -> [||]

(* The one BFS kernel: it writes into caller-owned [dist]/[via] arrays
   (reset here, O(n) stores) so a caller that keeps a pair per worker
   allocates only the 4-word [paths] record per run. *)
let bfs_kernel ~ws ~alive (csr : Topo.csr) ~dist ~via src =
  let n = csr.Topo.csr_nodes in
  if src < 0 || src >= n then invalid_arg "Spf.bfs_into: unknown source id";
  if Array.length dist <> n || Array.length via <> n then
    invalid_arg "Spf.bfs_into: dist/via arrays sized for another topology";
  Metrics.incr m_bfs;
  fit_workspace ws csr;
  let masked = Array.length alive > 0 in
  Array.fill dist 0 n max_int;
  Array.fill via 0 n (-1);
  dist.(src) <- 0;
  let q = ws.q in
  let head = ref 0 and tail = ref 0 in
  q.(!tail) <- src;
  incr tail;
  let row = csr.Topo.row and nbr = csr.Topo.nbr and eid = csr.Topo.eid in
  while !head < !tail do
    let u = q.(!head) in
    incr head;
    let du1 = dist.(u) + 1 in
    for k = row.(u) to row.(u + 1) - 1 do
      if (not masked) || alive.(eid.(k)) then begin
        let v = nbr.(k) in
        if dist.(v) = max_int then begin
          dist.(v) <- du1;
          via.(v) <- u;
          q.(!tail) <- v;
          incr tail
        end
      end
    done
  done;
  { src; dist; via }

type weighted = { wsrc : Domain.id; wdist : float array; wvia : Domain.id array }

let dijkstra_kernel ?ws ?alive (csr : Topo.csr) src =
  let n = csr.Topo.csr_nodes in
  if src < 0 || src >= n then invalid_arg "Spf.dijkstra_csr: unknown source id";
  Metrics.incr m_dijkstra;
  let ws = resolve_ws ws csr in
  let mask = mask_of alive in
  let masked = Array.length mask > 0 in
  let wdist = Array.make n infinity in
  let wvia = Array.make n (-1) in
  wdist.(src) <- 0.0;
  Array.fill ws.fin 0 n false;
  ws.hsize <- 0;
  ws.hseq_next <- 0;
  heap_push ws 0.0 src;
  let row = csr.Topo.row
  and nbr = csr.Topo.nbr
  and edelay = csr.Topo.edelay
  and eid = csr.Topo.eid in
  while ws.hsize > 0 do
    let d = ws.hkey.(0) and u = ws.hnode.(0) in
    heap_remove_min ws;
    if not ws.fin.(u) then begin
      ws.fin.(u) <- true;
      for k = row.(u) to row.(u + 1) - 1 do
        if (not masked) || mask.(eid.(k)) then begin
          let v = nbr.(k) in
          let nd = d +. edelay.(k) in
          if nd < wdist.(v) then begin
            wdist.(v) <- nd;
            wvia.(v) <- u;
            heap_push ws nd v
          end
        end
      done
    end
  done;
  { wsrc = src; wdist; wvia }

(* Valley-free layered BFS over (node, phase) states flattened to
   [node * 3 + phase]: phase 0 = Up (still climbing customer->provider),
   1 = Peered (crossed the one allowed peer link), 2 = Down (descending
   provider->customer).  Transitions: Up -> Up (to provider), Up ->
   Peered (peer edge), Up/Peered/Down -> Down (to customer). *)

let valley_free_kernel ?ws ?alive (csr : Topo.csr) src =
  let n = csr.Topo.csr_nodes in
  if src < 0 || src >= n then invalid_arg "Spf.valley_free_dist_csr: unknown source id";
  Metrics.incr m_valley_free;
  let ws = resolve_ws ws csr in
  let mask = mask_of alive in
  let masked = Array.length mask > 0 in
  let best = Array.make n max_int in
  let vf = ws.vf in
  Array.fill vf 0 (3 * n) max_int;
  let q = ws.q in
  let head = ref 0 and tail = ref 0 in
  vf.(3 * src) <- 0;
  best.(src) <- 0;
  q.(!tail) <- 3 * src;
  incr tail;
  let row = csr.Topo.row
  and nbr = csr.Topo.nbr
  and edir = csr.Topo.edir
  and eid = csr.Topo.eid in
  let relax v phase d =
    let s = (3 * v) + phase in
    if d < vf.(s) then begin
      vf.(s) <- d;
      if d < best.(v) then best.(v) <- d;
      q.(!tail) <- s;
      incr tail
    end
  in
  while !head < !tail do
    let s = q.(!head) in
    incr head;
    let u = s / 3 and phase = s mod 3 in
    let d = vf.(s) + 1 in
    for k = row.(u) to row.(u + 1) - 1 do
      if (not masked) || mask.(eid.(k)) then begin
        let v = nbr.(k) in
        let dir = edir.(k) in
        if phase = 0 then begin
          if dir = Topo.edge_up then relax v 0 d;
          if dir = Topo.edge_peer then relax v 1 d;
          if dir = Topo.edge_down then relax v 2 d
        end
        else if dir = Topo.edge_down then relax v 2 d
      end
    done
  done;
  best

(* Like [valley_free_kernel] but keeps the whole layered tree — per-state
   distance and predecessor STATE — so the incremental cache can repair
   it under link deltas.  Fresh result arrays (the tree outlives the
   call); only the queue is borrowed from the workspace. *)

type vftree = {
  vsrc : Domain.id;
  vdist : int array;  (* per state [3v + phase], max_int unreachable *)
  vvia : int array;  (* predecessor state, -1 at the root / unreachable *)
  vbest : int array;  (* per node: min over its three states *)
}

let vf_tree_kernel ?ws ?alive (csr : Topo.csr) src =
  let n = csr.Topo.csr_nodes in
  if src < 0 || src >= n then invalid_arg "Spf.vf_tree: unknown source id";
  Metrics.incr m_valley_free;
  let ws = resolve_ws ws csr in
  let mask = mask_of alive in
  let masked = Array.length mask > 0 in
  let vdist = Array.make (3 * n) max_int in
  let vvia = Array.make (3 * n) (-1) in
  let vbest = Array.make n max_int in
  let q = ws.q in
  let head = ref 0 and tail = ref 0 in
  vdist.(3 * src) <- 0;
  vbest.(src) <- 0;
  q.(!tail) <- 3 * src;
  incr tail;
  let row = csr.Topo.row
  and nbr = csr.Topo.nbr
  and edir = csr.Topo.edir
  and eid = csr.Topo.eid in
  let relax from v phase d =
    let s = (3 * v) + phase in
    if d < vdist.(s) then begin
      vdist.(s) <- d;
      vvia.(s) <- from;
      if d < vbest.(v) then vbest.(v) <- d;
      q.(!tail) <- s;
      incr tail
    end
  in
  while !head < !tail do
    let s = q.(!head) in
    incr head;
    let u = s / 3 and phase = s mod 3 in
    let d = vdist.(s) + 1 in
    for k = row.(u) to row.(u + 1) - 1 do
      if (not masked) || mask.(eid.(k)) then begin
        let v = nbr.(k) in
        let dir = edir.(k) in
        if phase = 0 then begin
          if dir = Topo.edge_up then relax s v 0 d;
          if dir = Topo.edge_peer then relax s v 1 d;
          if dir = Topo.edge_down then relax s v 2 d
        end
        else if dir = Topo.edge_down then relax s v 2 d
      end
    done
  done;
  { vsrc = src; vdist; vvia; vbest }

(* The exported kernels carry a profiler section each; the disabled
   path is one flag test, keeping the kernels bench-clean. *)

let bfs_into ~ws ?alive csr ~dist ~via src =
  let alive = mask_of alive in
  if Prof.is_enabled () then
    Prof.span "spf.bfs" (fun () -> bfs_kernel ~ws ~alive csr ~dist ~via src)
  else bfs_kernel ~ws ~alive csr ~dist ~via src

let bfs_csr ?ws ?alive csr src =
  let n = csr.Topo.csr_nodes in
  bfs_into ~ws:(resolve_ws ws csr) ?alive csr ~dist:(Array.make n max_int)
    ~via:(Array.make n (-1)) src

let dijkstra_csr ?ws ?alive csr src =
  if Prof.is_enabled () then
    Prof.span "spf.dijkstra" (fun () -> dijkstra_kernel ?ws ?alive csr src)
  else dijkstra_kernel ?ws ?alive csr src

let valley_free_dist_csr ?ws ?alive csr src =
  if Prof.is_enabled () then
    Prof.span "spf.valley_free" (fun () -> valley_free_kernel ?ws ?alive csr src)
  else valley_free_kernel ?ws ?alive csr src

(* ------------------------------------------------------------------ *)
(* Default entry points: freeze (memoized) + a shared workspace        *)
(* ------------------------------------------------------------------ *)

(* One workspace per domain, grown to the largest graph seen, keeps the
   common call sites (Shared_tree, Path_eval, Bgmp_fabric, Membership,
   ...) allocation-free without threading a workspace through every
   signature.  Domain-local (not global) so Par worker domains calling
   [bfs]/[dijkstra] never share scratch.  NB: [Domain] in this library
   is the multicast addressing domain; the runtime one is
   [Stdlib.Domain]. *)
let shared_ws_key : workspace option ref Stdlib.Domain.DLS.key =
  Stdlib.Domain.DLS.new_key (fun () -> ref None)

let with_shared_ws csr =
  let cell = Stdlib.Domain.DLS.get shared_ws_key in
  match !cell with
  | Some ws ->
      fit_workspace ws csr;
      ws
  | None ->
      let ws = make_workspace csr in
      cell := Some ws;
      ws

let bfs topo src =
  let csr = Topo.freeze topo in
  bfs_csr ~ws:(with_shared_ws csr) csr src

let dijkstra topo src =
  let csr = Topo.freeze topo in
  dijkstra_csr ~ws:(with_shared_ws csr) csr src

let valley_free_dist topo src =
  let csr = Topo.freeze topo in
  valley_free_dist_csr ~ws:(with_shared_ws csr) csr src

(* ------------------------------------------------------------------ *)
(* Result accessors                                                    *)
(* ------------------------------------------------------------------ *)

let dist p id = p.dist.(id)

let path p dst =
  if p.dist.(dst) = max_int then []
  else begin
    let rec walk node acc = if node = p.src then node :: acc else walk p.via.(node) (node :: acc) in
    walk dst []
  end

let next_hop_toward _topo p node =
  if node = p.src || p.dist.(node) = max_int then None else Some p.via.(node)

let wpath w dst =
  if w.wdist.(dst) = infinity then []
  else begin
    let rec walk node acc = if node = w.wsrc then node :: acc else walk w.wvia.(node) (node :: acc) in
    walk dst []
  end

(* ------------------------------------------------------------------ *)
(* Maintained SPF cache: trees repaired in place under link deltas     *)
(* ------------------------------------------------------------------ *)

let m_inc_repairs = Metrics.counter "spf.inc_repairs"

let m_inc_touched = Metrics.counter "spf.inc_touched"

(* The cache no longer memoizes over an immutable snapshot: each filled
   slot is a MAINTAINED tree.  [cache_note_link] flips a link's alive
   bit and ripple-repairs every filled slot — decrease-ripple on
   insert/restore, affected-subtree rebuild on failure — instead of
   invalidating and recomputing from scratch.  Dead links are carried as
   a bool mask keyed by link id, so a from-scratch masked kernel over
   the same snapshot is the differential oracle for any repaired tree. *)

type cache = {
  mutable ccsr : Topo.csr;
  cws : workspace;
  mutable slots : paths option array;  (* BFS trees, keyed by source id *)
  mutable wslots : weighted option array;  (* Dijkstra trees *)
  mutable vslots : vftree option array;  (* valley-free layered trees *)
  mutable alive : bool array;  (* by link id; [||] means all alive *)
  link_ids : (int, int) Hashtbl.t;  (* packed (min * n + max) -> link id *)
  mutable link_ids_len : int;  (* links of [ccsr.linkv] indexed so far *)
  mutable ring : int array;  (* repair FIFO over nodes / vf states *)
  mutable mark : bool array;  (* repair flags, 3n; all-false at rest *)
  mutable aff : int array;  (* affected node/state list (grown on demand) *)
  mutable hits : int;
  mutable misses : int;
  mutable repairs : int;  (* link transitions that repaired >= 1 tree *)
  mutable touched : int;  (* labels rewritten across all repairs *)
}

(* The three slot arrays are allocated on first use of their kind: a
   per-trial cache that only ever serves BFS queries costs one word per
   unused kind, not an n-slot array. *)
let make_cache_csr ?ws csr =
  {
    ccsr = csr;
    cws = resolve_ws ws csr;
    slots = [||];
    wslots = [||];
    vslots = [||];
    alive = [||];
    link_ids = Hashtbl.create 16;
    link_ids_len = 0;
    ring = [||];
    mark = [||];
    aff = [||];
    hits = 0;
    misses = 0;
    repairs = 0;
    touched = 0;
  }

let make_cache topo = make_cache_csr (Topo.freeze topo)

let cache_csr c = c.ccsr

let alive_opt c = if Array.length c.alive = 0 then None else Some c.alive

let cache_alive_mask c = c.alive

let ensure_link_index c =
  let linkv = c.ccsr.Topo.linkv in
  let n = c.ccsr.Topo.csr_nodes in
  if c.link_ids_len < Array.length linkv then begin
    for i = c.link_ids_len to Array.length linkv - 1 do
      let l = linkv.(i) in
      let x = min l.Topo.a l.Topo.b and y = max l.Topo.a l.Topo.b in
      Hashtbl.replace c.link_ids ((x * n) + y) i
    done;
    c.link_ids_len <- Array.length linkv
  end

let find_link c a b =
  let n = c.ccsr.Topo.csr_nodes in
  if a < 0 || b < 0 || a >= n || b >= n then None
  else begin
    ensure_link_index c;
    Hashtbl.find_opt c.link_ids ((min a b * n) + max a b)
  end

let cache_link_alive c ~a ~b =
  match find_link c a b with
  | Some lid -> Array.length c.alive = 0 || c.alive.(lid)
  | None -> true

let ensure_scratch c =
  let n3 = 3 * c.ccsr.Topo.csr_nodes in
  if Array.length c.mark < n3 then begin
    c.mark <- Array.make (max 16 n3) false;
    c.ring <- Array.make (max 16 n3) 0;
    c.aff <- Array.make (max 16 n3) 0
  end

let aff_push c i v =
  if !i >= Array.length c.aff then begin
    let grown = Array.make (2 * Array.length c.aff) 0 in
    Array.blit c.aff 0 grown 0 !i;
    c.aff <- grown
  end;
  c.aff.(!i) <- v;
  incr i

(* --- BFS repairs -------------------------------------------------- *)

(* Edge (a, b) came alive: seed both directions, then decrease-ripple.
   The ring FIFO is deduped with [mark] (a node already queued is just
   relabelled in place), so at most n entries are ever pending and the
   3n ring never wraps onto live entries. *)
let bfs_insert_repair c (p : paths) a b =
  let csr = c.ccsr in
  let row = csr.Topo.row and nbr = csr.Topo.nbr and eid = csr.Topo.eid in
  let alive = c.alive in
  let masked = Array.length alive > 0 in
  let dist = p.dist and via = p.via in
  let ring = c.ring and mark = c.mark in
  let cap = Array.length ring in
  let head = ref 0 and size = ref 0 in
  let touched = ref 0 in
  let push v =
    if not mark.(v) then begin
      mark.(v) <- true;
      ring.((!head + !size) mod cap) <- v;
      incr size
    end
  in
  let seed u v =
    if dist.(u) <> max_int && dist.(u) + 1 < dist.(v) then begin
      dist.(v) <- dist.(u) + 1;
      via.(v) <- u;
      incr touched;
      push v
    end
  in
  seed a b;
  seed b a;
  while !size > 0 do
    let u = ring.(!head) in
    head := (!head + 1) mod cap;
    decr size;
    mark.(u) <- false;
    let du1 = dist.(u) + 1 in
    for k = row.(u) to row.(u + 1) - 1 do
      if (not masked) || alive.(eid.(k)) then begin
        let v = nbr.(k) in
        if du1 < dist.(v) then begin
          dist.(v) <- du1;
          via.(v) <- u;
          incr touched;
          push v
        end
      end
    done
  done;
  !touched

(* Edge (a, b) died.  If the tree does not use it, the tree is its own
   witness that every distance is still optimal and nothing happens.
   Otherwise: collect the orphaned subtree (children satisfy
   [via.(child) = parent] and are graph neighbors, so one CSR row scan
   per member finds them), reset it, pull boundary candidates from
   intact alive neighbors, and settle the affected set with a restricted
   Dijkstra over unit weights.  The first pop of a node carries its
   final distance; later pops are stale and skipped via [mark]. *)
let bfs_delete_repair c (p : paths) a b =
  let dist = p.dist and via = p.via in
  let orphan = if via.(b) = a then b else if via.(a) = b then a else -1 in
  if orphan < 0 then 0
  else begin
    let csr = c.ccsr in
    let row = csr.Topo.row and nbr = csr.Topo.nbr and eid = csr.Topo.eid in
    let alive = c.alive in
    let masked = Array.length alive > 0 in
    let ring = c.ring and mark = c.mark in
    let qh = ref 0 and qt = ref 0 in
    let na = ref 0 in
    mark.(orphan) <- true;
    aff_push c na orphan;
    ring.(!qt) <- orphan;
    incr qt;
    while !qh < !qt do
      let u = ring.(!qh) in
      incr qh;
      for k = row.(u) to row.(u + 1) - 1 do
        let v = nbr.(k) in
        if (not mark.(v)) && via.(v) = u then begin
          mark.(v) <- true;
          aff_push c na v;
          ring.(!qt) <- v;
          incr qt
        end
      done
    done;
    for i = 0 to !na - 1 do
      let v = c.aff.(i) in
      dist.(v) <- max_int;
      via.(v) <- -1
    done;
    let ws = c.cws in
    ws.hsize <- 0;
    ws.hseq_next <- 0;
    for i = 0 to !na - 1 do
      let v = c.aff.(i) in
      let best = ref max_int and bvia = ref (-1) in
      for k = row.(v) to row.(v + 1) - 1 do
        if (not masked) || alive.(eid.(k)) then begin
          let u = nbr.(k) in
          if (not mark.(u)) && dist.(u) <> max_int && dist.(u) + 1 < !best then begin
            best := dist.(u) + 1;
            bvia := u
          end
        end
      done;
      if !best < max_int then begin
        dist.(v) <- !best;
        via.(v) <- !bvia;
        heap_push ws (float_of_int !best) v
      end
    done;
    while ws.hsize > 0 do
      let v = ws.hnode.(0) in
      heap_remove_min ws;
      if mark.(v) then begin
        mark.(v) <- false;
        let dv1 = dist.(v) + 1 in
        for k = row.(v) to row.(v + 1) - 1 do
          if (not masked) || alive.(eid.(k)) then begin
            let w = nbr.(k) in
            if mark.(w) && dv1 < dist.(w) then begin
              dist.(w) <- dv1;
              via.(w) <- v;
              heap_push ws (float_of_int dv1) w
            end
          end
        done
      end
    done;
    (* nodes cut off entirely keep max_int; drop their leftover marks *)
    for i = 0 to !na - 1 do
      mark.(c.aff.(i)) <- false
    done;
    !na
  end

(* --- Dijkstra repairs --------------------------------------------- *)

let dijkstra_insert_repair c (wt : weighted) a b w =
  let csr = c.ccsr in
  let row = csr.Topo.row
  and nbr = csr.Topo.nbr
  and eid = csr.Topo.eid
  and edelay = csr.Topo.edelay in
  let alive = c.alive in
  let masked = Array.length alive > 0 in
  let wdist = wt.wdist and wvia = wt.wvia in
  let ws = c.cws in
  ws.hsize <- 0;
  ws.hseq_next <- 0;
  let touched = ref 0 in
  let seed u v =
    if wdist.(u) < infinity && wdist.(u) +. w < wdist.(v) then begin
      wdist.(v) <- wdist.(u) +. w;
      wvia.(v) <- u;
      incr touched;
      heap_push ws wdist.(v) v
    end
  in
  seed a b;
  seed b a;
  while ws.hsize > 0 do
    let d = ws.hkey.(0) and u = ws.hnode.(0) in
    heap_remove_min ws;
    if d <= wdist.(u) then
      for k = row.(u) to row.(u + 1) - 1 do
        if (not masked) || alive.(eid.(k)) then begin
          let v = nbr.(k) in
          let nd = wdist.(u) +. edelay.(k) in
          if nd < wdist.(v) then begin
            wdist.(v) <- nd;
            wvia.(v) <- u;
            incr touched;
            heap_push ws nd v
          end
        end
      done
  done;
  !touched

let dijkstra_delete_repair c (wt : weighted) a b =
  let wdist = wt.wdist and wvia = wt.wvia in
  let orphan = if wvia.(b) = a then b else if wvia.(a) = b then a else -1 in
  if orphan < 0 then 0
  else begin
    let csr = c.ccsr in
    let row = csr.Topo.row
    and nbr = csr.Topo.nbr
    and eid = csr.Topo.eid
    and edelay = csr.Topo.edelay in
    let alive = c.alive in
    let masked = Array.length alive > 0 in
    let ring = c.ring and mark = c.mark in
    let qh = ref 0 and qt = ref 0 in
    let na = ref 0 in
    mark.(orphan) <- true;
    aff_push c na orphan;
    ring.(!qt) <- orphan;
    incr qt;
    while !qh < !qt do
      let u = ring.(!qh) in
      incr qh;
      for k = row.(u) to row.(u + 1) - 1 do
        let v = nbr.(k) in
        if (not mark.(v)) && wvia.(v) = u then begin
          mark.(v) <- true;
          aff_push c na v;
          ring.(!qt) <- v;
          incr qt
        end
      done
    done;
    for i = 0 to !na - 1 do
      let v = c.aff.(i) in
      wdist.(v) <- infinity;
      wvia.(v) <- -1
    done;
    let ws = c.cws in
    ws.hsize <- 0;
    ws.hseq_next <- 0;
    for i = 0 to !na - 1 do
      let v = c.aff.(i) in
      let best = ref infinity and bvia = ref (-1) in
      for k = row.(v) to row.(v + 1) - 1 do
        if (not masked) || alive.(eid.(k)) then begin
          let u = nbr.(k) in
          if not mark.(u) then begin
            let cand = wdist.(u) +. edelay.(k) in
            if cand < !best then begin
              best := cand;
              bvia := u
            end
          end
        end
      done;
      if !best < infinity then begin
        wdist.(v) <- !best;
        wvia.(v) <- !bvia;
        heap_push ws !best v
      end
    done;
    while ws.hsize > 0 do
      let v = ws.hnode.(0) in
      heap_remove_min ws;
      if mark.(v) then begin
        mark.(v) <- false;
        for k = row.(v) to row.(v + 1) - 1 do
          if (not masked) || alive.(eid.(k)) then begin
            let w = nbr.(k) in
            let nd = wdist.(v) +. edelay.(k) in
            if mark.(w) && nd < wdist.(w) then begin
              wdist.(w) <- nd;
              wvia.(w) <- v;
              heap_push ws nd w
            end
          end
        done
      end
    done;
    for i = 0 to !na - 1 do
      mark.(c.aff.(i)) <- false
    done;
    !na
  end

(* --- Valley-free repairs ------------------------------------------ *)

(* Repairs run on the layered state graph [3v + phase].  Out-transitions
   mirror the kernel; the in-edge rules used for boundary candidates are
   their flips: reading [edir] in v's OWN row (direction v -> u), the
   reverse edge u -> v is Up when [edir = edge_down], Peer when
   [edir = edge_peer] and Down when [edir = edge_up]. *)

let vf_insert_repair c (t : vftree) a b dir_ab dir_ba =
  let csr = c.ccsr in
  let row = csr.Topo.row
  and nbr = csr.Topo.nbr
  and eid = csr.Topo.eid
  and edir = csr.Topo.edir in
  let alive = c.alive in
  let masked = Array.length alive > 0 in
  let vdist = t.vdist and vvia = t.vvia and vbest = t.vbest in
  let ring = c.ring and mark = c.mark in
  let cap = Array.length ring in
  let head = ref 0 and size = ref 0 in
  let na = ref 0 in
  let push s =
    if not mark.(s) then begin
      mark.(s) <- true;
      ring.((!head + !size) mod cap) <- s;
      incr size
    end
  in
  let improve from v phase d =
    let s = (3 * v) + phase in
    if d < vdist.(s) then begin
      vdist.(s) <- d;
      vvia.(s) <- from;
      aff_push c na s;
      push s
    end
  in
  let seed u v dir =
    let su0 = 3 * u in
    if vdist.(su0) <> max_int then begin
      let d = vdist.(su0) + 1 in
      if dir = Topo.edge_up then improve su0 v 0 d;
      if dir = Topo.edge_peer then improve su0 v 1 d
    end;
    if dir = Topo.edge_down then
      for pu = 0 to 2 do
        let s = (3 * u) + pu in
        if vdist.(s) <> max_int then improve s v 2 (vdist.(s) + 1)
      done
  in
  seed a b dir_ab;
  seed b a dir_ba;
  while !size > 0 do
    let s = ring.(!head) in
    head := (!head + 1) mod cap;
    decr size;
    mark.(s) <- false;
    let u = s / 3 and phase = s mod 3 in
    let d = vdist.(s) + 1 in
    for k = row.(u) to row.(u + 1) - 1 do
      if (not masked) || alive.(eid.(k)) then begin
        let v = nbr.(k) in
        let dir = edir.(k) in
        if phase = 0 then begin
          if dir = Topo.edge_up then improve s v 0 d;
          if dir = Topo.edge_peer then improve s v 1 d;
          if dir = Topo.edge_down then improve s v 2 d
        end
        else if dir = Topo.edge_down then improve s v 2 d
      end
    done
  done;
  for i = 0 to !na - 1 do
    let v = c.aff.(i) / 3 in
    vbest.(v) <- min vdist.(3 * v) (min vdist.((3 * v) + 1) vdist.((3 * v) + 2))
  done;
  !na

let vf_delete_repair c (t : vftree) a b =
  let csr = c.ccsr in
  let row = csr.Topo.row
  and nbr = csr.Topo.nbr
  and eid = csr.Topo.eid
  and edir = csr.Topo.edir in
  let alive = c.alive in
  let masked = Array.length alive > 0 in
  let vdist = t.vdist and vvia = t.vvia and vbest = t.vbest in
  let ring = c.ring and mark = c.mark in
  let qt = ref 0 in
  let na = ref 0 in
  let orphan s =
    mark.(s) <- true;
    aff_push c na s;
    vdist.(s) <- max_int;
    vvia.(s) <- -1;
    ring.(!qt) <- s;
    incr qt
  in
  for p = 0 to 2 do
    let s = (3 * b) + p in
    if vvia.(s) >= 0 && vvia.(s) / 3 = a then orphan s;
    let s = (3 * a) + p in
    if vvia.(s) >= 0 && vvia.(s) / 3 = b then orphan s
  done;
  if !qt = 0 then 0
  else begin
    let qh = ref 0 in
    while !qh < !qt do
      let s = ring.(!qh) in
      incr qh;
      let u = s / 3 in
      for k = row.(u) to row.(u + 1) - 1 do
        let v = nbr.(k) in
        for p = 0 to 2 do
          let sv = (3 * v) + p in
          if (not mark.(sv)) && vvia.(sv) = s then orphan sv
        done
      done
    done;
    let ws = c.cws in
    ws.hsize <- 0;
    ws.hseq_next <- 0;
    for i = 0 to !na - 1 do
      let s = c.aff.(i) in
      let v = s / 3 and phase = s mod 3 in
      let best = ref max_int and bvia = ref (-1) in
      let cand su =
        if (not mark.(su)) && vdist.(su) <> max_int && vdist.(su) + 1 < !best then begin
          best := vdist.(su) + 1;
          bvia := su
        end
      in
      for k = row.(v) to row.(v + 1) - 1 do
        if (not masked) || alive.(eid.(k)) then begin
          let u = nbr.(k) in
          let dir = edir.(k) in
          if phase = 0 then begin
            if dir = Topo.edge_down then cand (3 * u)
          end
          else if phase = 1 then begin
            if dir = Topo.edge_peer then cand (3 * u)
          end
          else if dir = Topo.edge_up then begin
            cand (3 * u);
            cand ((3 * u) + 1);
            cand ((3 * u) + 2)
          end
        end
      done;
      if !best < max_int then begin
        vdist.(s) <- !best;
        vvia.(s) <- !bvia;
        heap_push ws (float_of_int !best) s
      end
    done;
    while ws.hsize > 0 do
      let s = ws.hnode.(0) in
      heap_remove_min ws;
      if mark.(s) then begin
        mark.(s) <- false;
        let u = s / 3 and phase = s mod 3 in
        let d = vdist.(s) + 1 in
        for k = row.(u) to row.(u + 1) - 1 do
          if (not masked) || alive.(eid.(k)) then begin
            let v = nbr.(k) in
            let dir = edir.(k) in
            let relax_to pv =
              let sv = (3 * v) + pv in
              if mark.(sv) && d < vdist.(sv) then begin
                vdist.(sv) <- d;
                vvia.(sv) <- s;
                heap_push ws (float_of_int d) sv
              end
            in
            if phase = 0 then begin
              if dir = Topo.edge_up then relax_to 0;
              if dir = Topo.edge_peer then relax_to 1;
              if dir = Topo.edge_down then relax_to 2
            end
            else if dir = Topo.edge_down then relax_to 2
          end
        done
      end
    done;
    for i = 0 to !na - 1 do
      let s = c.aff.(i) in
      mark.(s) <- false;
      let v = s / 3 in
      vbest.(v) <- min vdist.(3 * v) (min vdist.((3 * v) + 1) vdist.((3 * v) + 2))
    done;
    !na
  end

(* --- Delta entry points ------------------------------------------- *)

let link_dirs (l : Topo.link) =
  match l.Topo.rel with
  | Topo.Peer -> (Topo.edge_peer, Topo.edge_peer)
  | Topo.Provider_customer -> (Topo.edge_down, Topo.edge_up)

let repair_all c lid up =
  ensure_scratch c;
  fit_workspace c.cws c.ccsr;
  let l = c.ccsr.Topo.linkv.(lid) in
  let a = l.Topo.a and b = l.Topo.b in
  let w = Time.to_seconds l.Topo.delay in
  let dir_ab, dir_ba = link_dirs l in
  let any = ref false in
  let touched = ref 0 in
  Array.iter
    (function
      | Some p ->
          any := true;
          touched :=
            !touched + (if up then bfs_insert_repair c p a b else bfs_delete_repair c p a b)
      | None -> ())
    c.slots;
  Array.iter
    (function
      | Some wt ->
          any := true;
          touched :=
            !touched
            + (if up then dijkstra_insert_repair c wt a b w else dijkstra_delete_repair c wt a b)
      | None -> ())
    c.wslots;
  Array.iter
    (function
      | Some t ->
          any := true;
          touched :=
            !touched
            + (if up then vf_insert_repair c t a b dir_ab dir_ba else vf_delete_repair c t a b)
      | None -> ())
    c.vslots;
  if !any then begin
    c.repairs <- c.repairs + 1;
    Metrics.incr m_inc_repairs;
    c.touched <- c.touched + !touched;
    Metrics.add m_inc_touched !touched
  end

let cache_note_link c ~a ~b ~up =
  match find_link c a b with
  | None -> ()  (* not a link of this snapshot: nothing maintained to fix *)
  | Some lid ->
      let now_alive = Array.length c.alive = 0 || c.alive.(lid) in
      if now_alive <> up then begin
        if Array.length c.alive = 0 then
          c.alive <- Array.make (max 1 (Array.length c.ccsr.Topo.linkv)) true;
        c.alive.(lid) <- up;
        repair_all c lid up
      end

let cache_adopt c (csr' : Topo.csr) =
  if csr' != c.ccsr then begin
    let old = c.ccsr in
    let on = old.Topo.csr_nodes and nn = csr'.Topo.csr_nodes in
    let om = Array.length old.Topo.linkv and nm = Array.length csr'.Topo.linkv in
    (* Same nodes + the old link table as a physical prefix (freeze
       re-snapshots the same link records) means the new snapshot is the
       old graph plus appended links: adoptable by insert-repair. *)
    let prefix_ok =
      nn = on && nm >= om
      &&
      let ok = ref true in
      for i = 0 to om - 1 do
        if not (csr'.Topo.linkv.(i) == old.Topo.linkv.(i)) then ok := false
      done;
      !ok
    in
    c.ccsr <- csr';
    if prefix_ok then begin
      if Array.length c.alive > 0 && Array.length c.alive < nm then begin
        let grown = Array.make nm true in
        Array.blit c.alive 0 grown 0 (Array.length c.alive);
        c.alive <- grown
      end;
      fit_workspace c.cws csr';
      ensure_scratch c;
      ensure_link_index c;
      for lid = om to nm - 1 do
        repair_all c lid true
      done
    end
    else begin
      (* a different graph: drop the maintained trees and start over *)
      c.slots <- [||];
      c.wslots <- [||];
      c.vslots <- [||];
      c.alive <- [||];
      Hashtbl.reset c.link_ids;
      c.link_ids_len <- 0;
      fit_workspace c.cws csr'
    end
  end

(* --- Cached queries ----------------------------------------------- *)

let bfs_slots c =
  if Array.length c.slots = 0 then c.slots <- Array.make (max 1 c.ccsr.Topo.csr_nodes) None;
  c.slots

let dijkstra_slots c =
  if Array.length c.wslots = 0 then c.wslots <- Array.make (max 1 c.ccsr.Topo.csr_nodes) None;
  c.wslots

let vf_slots c =
  if Array.length c.vslots = 0 then c.vslots <- Array.make (max 1 c.ccsr.Topo.csr_nodes) None;
  c.vslots

let bfs_cached c src =
  match (bfs_slots c).(src) with
  | Some p ->
      c.hits <- c.hits + 1;
      Metrics.incr m_cache_hit;
      p
  | None ->
      c.misses <- c.misses + 1;
      Metrics.incr m_cache_miss;
      let p = bfs_csr ~ws:c.cws ?alive:(alive_opt c) c.ccsr src in
      (bfs_slots c).(src) <- Some p;
      p

let dijkstra_cached c src =
  match (dijkstra_slots c).(src) with
  | Some w ->
      c.hits <- c.hits + 1;
      Metrics.incr m_cache_hit;
      w
  | None ->
      c.misses <- c.misses + 1;
      Metrics.incr m_cache_miss;
      let w = dijkstra_csr ~ws:c.cws ?alive:(alive_opt c) c.ccsr src in
      (dijkstra_slots c).(src) <- Some w;
      w

let valley_free_tree_cached c src =
  match (vf_slots c).(src) with
  | Some t ->
      c.hits <- c.hits + 1;
      Metrics.incr m_cache_hit;
      t
  | None ->
      c.misses <- c.misses + 1;
      Metrics.incr m_cache_miss;
      let t = vf_tree_kernel ~ws:c.cws ?alive:(alive_opt c) c.ccsr src in
      (vf_slots c).(src) <- Some t;
      t

let valley_free_cached c src = (valley_free_tree_cached c src).vbest

let cache_stats c = (c.hits, c.misses)

let cache_repair_stats c = (c.repairs, c.touched)
