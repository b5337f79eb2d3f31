type relationship = Provider_customer | Peer

type link = { a : Domain.id; b : Domain.id; rel : relationship; delay : Time.t }

type csr = {
  csr_nodes : int;
  row : int array;
  nbr : int array;
  eid : int array;
  linkv : link array;
}

type t = {
  mutable doms : Domain.t array;
  mutable n : int;
  mutable adj : (Domain.id * link) list array;
      (** per-node: (neighbor, link), in REVERSE insertion order (cons on
          add); public accessors restore insertion order *)
  mutable linkv_dyn : link array;
      (** links in insertion order; first [link_n] slots are live.  Kept
          as a growable array (not a list) so {!freeze} snapshots the
          link table with one [Array.sub] instead of an O(m) list
          reversal — the dirty-range fast path of re-memoization. *)
  mutable link_n : int;
  by_name : (string, Domain.id) Hashtbl.t;
  mutable frozen : csr option;  (** memoized snapshot, cleared on mutation *)
}

(* How often a mutated graph actually pays for a CSR rebuild; the
   incremental SPF layer's savings show up as this staying flat while
   link-churn counters climb. *)
let m_csr_rebuilds = Metrics.counter "topo.csr_rebuilds"

let create () =
  {
    doms = [||];
    n = 0;
    adj = [||];
    linkv_dyn = [||];
    link_n = 0;
    by_name = Hashtbl.create 64;
    frozen = None;
  }

let ensure_capacity t =
  let cap = Array.length t.doms in
  if t.n = cap then begin
    let fresh_cap = if cap = 0 then 16 else 2 * cap in
    let dummy = Domain.make ~id:(-1) ~name:"" ~kind:Domain.Stub in
    let doms = Array.make fresh_cap dummy in
    Array.blit t.doms 0 doms 0 t.n;
    let adj = Array.make fresh_cap [] in
    Array.blit t.adj 0 adj 0 t.n;
    t.doms <- doms;
    t.adj <- adj
  end

let add_domain t ~name ~kind =
  ensure_capacity t;
  let id = t.n in
  t.doms.(id) <- Domain.make ~id ~name ~kind;
  t.n <- t.n + 1;
  Hashtbl.replace t.by_name name id;
  t.frozen <- None;
  id

let domain_count t = t.n

let link_count t = t.link_n

let check_id t id = if id < 0 || id >= t.n then invalid_arg "Topo: unknown domain id"

let domain t id =
  check_id t id;
  t.doms.(id)

let domains t = Array.to_list (Array.sub t.doms 0 t.n)

let find_by_name t name = Hashtbl.find_opt t.by_name name

let link_between t x y =
  check_id t x;
  check_id t y;
  List.assoc_opt y t.adj.(x)

let add_link t a b rel =
  check_id t a;
  check_id t b;
  if a = b then invalid_arg "Topo.add_link: self-link";
  if link_between t a b <> None then invalid_arg "Topo.add_link: duplicate link";
  let l = { a; b; rel; delay = Time.seconds 0.010 } in
  t.adj.(a) <- (b, l) :: t.adj.(a);
  t.adj.(b) <- (a, l) :: t.adj.(b);
  let cap = Array.length t.linkv_dyn in
  if t.link_n = cap then begin
    let grown = Array.make (if cap = 0 then 16 else 2 * cap) l in
    Array.blit t.linkv_dyn 0 grown 0 t.link_n;
    t.linkv_dyn <- grown
  end;
  t.linkv_dyn.(t.link_n) <- l;
  t.link_n <- t.link_n + 1;
  t.frozen <- None

let degree t id =
  check_id t id;
  List.length t.adj.(id)

let providers_of t id =
  check_id t id;
  List.filter_map
    (fun (nbr, l) ->
      match l.rel with
      | Provider_customer when l.a = nbr -> Some nbr
      | Provider_customer | Peer -> None)
    (List.rev t.adj.(id))

let links t = Array.to_list (Array.sub t.linkv_dyn 0 t.link_n)

let freeze t =
  match t.frozen with
  | Some c -> c
  | None ->
      Metrics.incr m_csr_rebuilds;
      let n = t.n in
      let linkv = Array.sub t.linkv_dyn 0 t.link_n in
      let m = 2 * Array.length linkv in
      let row = Array.make (n + 1) 0 in
      Array.iter
        (fun l ->
          row.(l.a + 1) <- row.(l.a + 1) + 1;
          row.(l.b + 1) <- row.(l.b + 1) + 1)
        linkv;
      for u = 1 to n do
        row.(u) <- row.(u) + row.(u - 1)
      done;
      let fill = Array.sub row 0 (max 1 n) in
      let nbr = Array.make m (-1) in
      let eid = Array.make m (-1) in
      (* Per-node slots fill in global link-insertion order, which equals
         per-node insertion order (a link is appended to both endpoints'
         adjacency the moment it is created). *)
      Array.iteri
        (fun i l ->
          let put u v =
            let k = fill.(u) in
            fill.(u) <- k + 1;
            nbr.(k) <- v;
            eid.(k) <- i
          in
          put l.a l.b;
          put l.b l.a)
        linkv;
      let c = { csr_nodes = n; row; nbr; eid; linkv } in
      t.frozen <- Some c;
      c

let pp_summary ppf t =
  let count kind = List.length (List.filter (fun d -> d.Domain.kind = kind) (domains t)) in
  Format.fprintf ppf "%d domains (%d backbone, %d regional, %d stub, %d exchange), %d links"
    t.n (count Domain.Backbone) (count Domain.Regional) (count Domain.Stub)
    (count Domain.Exchange) t.link_n
