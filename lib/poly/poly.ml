module C = Riot_base.Checked
module Q = Riot_base.Q

type t = { space : Space.t; eqs : Aff.t list; ges : Aff.t list }

let space t = t.space
let universe space = { space; eqs = []; ges = [] }
let of_constraints space ~eqs ~ges = { space; eqs; ges }
let eqs t = t.eqs
let ges t = t.ges
let add_eq t aff = { t with eqs = aff :: t.eqs }
let add_ge t aff = { t with ges = aff :: t.ges }
let add_gt t aff = { t with ges = Aff.add_const aff (-1) :: t.ges }

let intersect a b =
  if not (Space.equal a.space b.space) then invalid_arg "Poly.intersect: space mismatch";
  { a with eqs = a.eqs @ b.eqs; ges = a.ges @ b.ges }

let cast space t =
  { space; eqs = List.map (Aff.cast space) t.eqs; ges = List.map (Aff.cast space) t.ges }

let product a b =
  let space = Space.concat a.space b.space in
  intersect (cast space a) (cast space b)

(* --- Constraint normalisation ----------------------------------------- *)

(* The canonical empty polyhedron: 0 >= -1 is recognisable syntactically. *)
let empty space = { space; eqs = []; ges = [ Aff.const space (-1) ] }

exception Infeasible

(* Canonical sign: first non-zero coefficient positive, so structurally equal
   equalities of opposite sign share one representative. *)
let canon_sign aff =
  let rec lead i =
    if i >= Array.length aff.Aff.coeffs then 1
    else if aff.Aff.coeffs.(i) > 0 then 1
    else if aff.Aff.coeffs.(i) < 0 then -1
    else lead (i + 1)
  in
  if lead 0 < 0 then Aff.neg aff else aff

(* Normalise an equality [aff = 0]. Returns [None] for the trivial 0 = 0.
   With [tighten], an equality whose coefficient gcd does not divide the
   constant has no integer solution.
   @raise Infeasible when no solution can exist. *)
let norm_eq ~tighten aff =
  let g = Aff.content_gcd aff in
  if g = 0 then if aff.Aff.const = 0 then None else raise Infeasible
  else if aff.Aff.const mod g <> 0 then
    if tighten then raise Infeasible
    else
      let g = C.gcd g aff.Aff.const in
      let aff =
        if g <= 1 then aff
        else { aff with Aff.coeffs = Array.map (fun c -> c / g) aff.Aff.coeffs;
                        Aff.const = aff.Aff.const / g }
      in
      Some (canon_sign aff)
  else
    let aff = { aff with Aff.coeffs = Array.map (fun c -> c / g) aff.Aff.coeffs;
                         Aff.const = aff.Aff.const / g } in
    Some (canon_sign aff)

(* Normalise an inequality [aff >= 0]. [tighten] may round the constant down
   (valid over the integers only). Returns [None] for a trivially true
   constraint. @raise Infeasible when trivially false. *)
let norm_ge ~tighten aff =
  let g = Aff.content_gcd aff in
  if g = 0 then if aff.Aff.const >= 0 then None else raise Infeasible
  else if tighten then
    Some
      { aff with Aff.coeffs = Array.map (fun c -> c / g) aff.Aff.coeffs;
                 Aff.const = C.fdiv aff.Aff.const g }
  else
    let g = C.gcd g aff.Aff.const in
    if g <= 1 then Some aff
    else
      Some
        { aff with Aff.coeffs = Array.map (fun c -> c / g) aff.Aff.coeffs;
                   Aff.const = aff.Aff.const / g }

(* Dedup tables keyed by whole constraint rows.  The polymorphic
   [Hashtbl.hash] reads only the first few words of a key, so in the wide
   schedule spaces rows that differ only past their first ~10 coefficients
   all collide.  This hash mixes every coefficient, and folds high bits back
   down at each step: table indices read the low bits, and a bare
   multiply-add such as [h * 31 + c] leaves them depending on few inputs
   (31 is -1 modulo 16, so power-of-two tables collapse into a few
   buckets). *)
let hash_row init (a : int array) =
  let h = ref init in
  for i = 0 to Array.length a - 1 do
    let x = (!h + a.(i)) * 0x2127599bf4325c37 in
    h := x lxor (x lsr 29)
  done;
  !h land max_int

let equal_row (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

(* Rows keyed by coefficients alone (the inequality dedup) ... *)
module Coeff_tbl = Hashtbl.Make (struct
  type t = int array

  let equal = equal_row
  let hash = hash_row 0
end)

(* ... and by coefficients and constant (the equality dedup). *)
module Row_tbl = Hashtbl.Make (struct
  type t = Aff.t

  let equal (a : Aff.t) (b : Aff.t) =
    a.Aff.const = b.Aff.const && equal_row a.Aff.coeffs b.Aff.coeffs

  let hash (a : Aff.t) = hash_row a.Aff.const a.Aff.coeffs
end)

(* Keep the first occurrence of every equality. *)
let dedup_eqs eqs =
  let seen = Row_tbl.create 16 in
  List.filter
    (fun a ->
      if Row_tbl.mem seen a then false
      else begin
        Row_tbl.add seen a ();
        true
      end)
    eqs

(* The smallest constant of every inequality coefficient vector. *)
let strongest ges =
  let best = Coeff_tbl.create 16 in
  List.iter
    (fun a ->
      match Coeff_tbl.find_opt best a.Aff.coeffs with
      | Some c when c <= a.Aff.const -> ()
      | _ -> Coeff_tbl.replace best a.Aff.coeffs a.Aff.const)
    ges;
  best

let simplify_exn ?(tighten = true) t =
  let eqs = dedup_eqs (List.filter_map (norm_eq ~tighten) t.eqs) in
  let ges = List.filter_map (norm_ge ~tighten) t.ges in
  (* For inequalities sharing a coefficient vector keep only the strongest
     (smallest constant); detect opposite pairs that form an equality. *)
  let best = strongest ges in
  let promoted = ref [] in
  let ges =
    List.filter_map
      (fun a ->
        let k = a.Aff.coeffs in
        match Coeff_tbl.find_opt best k with
        | Some c when c = a.Aff.const ->
            Coeff_tbl.remove best k;
            (* Opposite direction present with exactly opposite constant? *)
            let nk = Array.map C.neg k in
            (match Coeff_tbl.find_opt best nk with
            | Some nc when nc = -a.Aff.const ->
                Coeff_tbl.remove best nk;
                promoted := a :: !promoted;
                None
            | _ -> Some a)
        | _ -> None)
      ges
  in
  let extra_eqs = List.filter_map (norm_eq ~tighten) !promoted in
  { t with eqs = eqs @ extra_eqs; ges }

let simplify ?tighten t = try simplify_exn ?tighten t with Infeasible -> empty t.space

let is_obviously_empty t =
  List.exists (fun a -> Aff.is_constant a && a.Aff.const < 0) t.ges
  || List.exists (fun a -> Aff.is_constant a && a.Aff.const <> 0) t.eqs

(* --- Fourier–Motzkin elimination --------------------------------------- *)

(* Lightweight redundancy elimination: drop syntactic duplicates and
   inequalities dominated by an identical-coefficient row with a smaller
   constant (for [c.x + k >= 0], smaller [k] is stronger).  Unlike
   [simplify] this performs no gcd normalisation or infeasibility analysis,
   so it is cheap enough to run after every projection step; repeated
   eliminations otherwise multiply near-identical rows. *)
let compact t =
  let best = strongest t.ges in
  let ges =
    List.filter
      (fun a ->
        match Coeff_tbl.find_opt best a.Aff.coeffs with
        | Some c when c = a.Aff.const ->
            Coeff_tbl.remove best a.Aff.coeffs;
            true
        | _ -> false)
      t.ges
  in
  { t with eqs = dedup_eqs t.eqs; ges }

exception Fm_budget_exceeded

(* Eliminate one dimension. Prefers exact substitution via an equality with a
   unit coefficient; otherwise falls back to FM over the inequalities (with
   non-unit equalities split into two inequalities).  [combo_budget], when
   given, raises [Fm_budget_exceeded] sooner than materializing more than
   that many pos*neg combinations — the step that makes FM double
   exponential. *)
let eliminate_one ?combo_budget ~tighten t name =
  let i = Space.index t.space name in
  let coeff a = a.Aff.coeffs.(i) in
  let unit_eq = List.find_opt (fun a -> abs (coeff a) = 1) (List.filter (fun a -> coeff a <> 0) t.eqs) in
  match unit_eq with
  | Some e ->
      (* e = c*x + rest = 0  =>  x = -rest/c = -c*rest (|c| = 1). *)
      let c = coeff e in
      let rest = { e with Aff.coeffs = Array.copy e.Aff.coeffs } in
      rest.Aff.coeffs.(i) <- 0;
      let r = Aff.scale (-c) rest in
      let sub a = if coeff a = 0 then a else Aff.subst a name r in
      compact
        { t with
          eqs = List.filter (fun a -> not (a == e)) t.eqs |> List.map sub;
          ges = List.map sub t.ges }
  | None ->
      let eq_with, eq_without = List.partition (fun a -> coeff a <> 0) t.eqs in
      let ges = t.ges @ List.concat_map (fun a -> [ a; Aff.neg a ]) eq_with in
      let pos, rest = List.partition (fun a -> coeff a > 0) ges in
      let negs, zero = List.partition (fun a -> coeff a < 0) rest in
      (match combo_budget with
      | Some b when List.length pos * List.length negs > b ->
          raise Fm_budget_exceeded
      | _ -> ());
      let combos =
        List.concat_map
          (fun p ->
            List.map
              (fun n ->
                (* p: a*x + e >= 0 (a>0);  n: -b*x + f >= 0 (b>0)
                   =>  b*e + a*f >= 0 *)
                let a = coeff p and b = -coeff n in
                let g = C.gcd a b in
                let c = Aff.add (Aff.scale (b / g) p) (Aff.scale (a / g) n) in
                c)
              negs)
          pos
      in
      simplify ~tighten { t with eqs = eq_without; ges = zero @ combos }

let eliminate ?(tighten = true) t names =
  let t = simplify ~tighten t in
  if is_obviously_empty t then empty t.space
  else
    List.fold_left
      (fun t name ->
        if is_obviously_empty t then empty t.space
        else eliminate_one ~tighten t name)
      t names

let drop_dims t names =
  let t = eliminate t names in
  let space = Space.remove t.space names in
  cast space t

let fix_dims t assignments =
  let fix a = Aff.fix_dims a assignments in
  let names = List.map fst assignments in
  let space = Space.remove t.space names in
  cast space { t with eqs = List.map fix t.eqs; ges = List.map fix t.ges }

(* Renaming keeps each [Aff.t]'s positional coefficient layout, so the target
   names must stay pairwise distinct: a mapping that collides two dimensions
   would otherwise merge them silently while the coefficient arrays still
   address two separate slots. *)
let renamed_names ~who space mapping =
  let rn n = match List.assoc_opt n mapping with Some m -> m | None -> n in
  let names = List.map rn (Space.names space) in
  let seen = Hashtbl.create 8 in
  List.iter2
    (fun old now ->
      match Hashtbl.find_opt seen now with
      | Some prev ->
          invalid_arg
            (Printf.sprintf "%s: mapping collides dimensions %s and %s onto %s" who
               prev old now)
      | None -> Hashtbl.add seen now old)
    (Space.names space) names;
  names

let rename t mapping =
  let space = Space.of_names (renamed_names ~who:"Poly.rename" t.space mapping) in
  let re a = { a with Aff.space = space } in
  { space; eqs = List.map re t.eqs; ges = List.map re t.ges }

(* --- Emptiness, sampling, enumeration ---------------------------------- *)

(* Fourier-Motzkin emptiness is double-exponential in the worst case: each
   elimination can square the inequality count.  Past this many inequalities
   in an intermediate system we give up on the component and conservatively
   answer "not provably empty" - sound for every caller, since emptiness only
   gates pruning and dropping (a retained non-empty verdict is re-tested by
   whatever sampling or verification follows). *)
let fm_inequality_budget = 4000

(* Rational emptiness of one simplified, connected system by FM.  Greedy
   elimination order: always the dimension whose pos*neg inequality product
   is smallest, which delays the blow-up FM is prone to under a fixed
   order. *)
let fm_empty c =
  let rec go c names =
    if is_obviously_empty c then true
    else
      match names with
      | [] -> false
      | _ ->
          let cost nm =
            let i = Space.index c.space nm in
            let pos = ref 0 and neg = ref 0 and eq = ref false in
            List.iter
              (fun (a : Aff.t) -> if a.Aff.coeffs.(i) <> 0 then eq := true)
              c.eqs;
            List.iter
              (fun (a : Aff.t) ->
                if a.Aff.coeffs.(i) > 0 then incr pos
                else if a.Aff.coeffs.(i) < 0 then incr neg)
              c.ges;
            if !eq then -1 else !pos * !neg
          in
          let best =
            List.fold_left
              (fun (bn, bc) nm ->
                let cn = cost nm in
                if cn < bc then (nm, cn) else (bn, bc))
              (List.hd names, cost (List.hd names))
              (List.tl names)
            |> fst
          in
          go
            (eliminate_one ~combo_budget:fm_inequality_budget ~tighten:false c
               best)
            (List.filter (fun nm -> nm <> best) names)
  in
  try go c (Space.names c.space) with Fm_budget_exceeded -> false

(* A constraint of a system, tagged with its position in the system's
   equality or inequality list. *)
type row = { seq : int; aff : Aff.t }

(* Emptiness of one connected component of a system: [dims] (ascending
   indices into [space]) and the component's rows in system order.  This is
   exactly the check the whole system gives the component.  [simplify] only
   merges rows with equal or opposite coefficient vectors, which share their
   support, so the component's rows simplified alone, over its dimensions in
   ascending order, are the whole system's simplified rows restricted to it
   (signs and order included).  FM then runs over the dimensions in
   descending order, the order the greedy elimination has always broken
   ties in. *)
let component_empty space dims eqs ges =
  let dims = Array.of_list dims in
  let k = Array.length dims in
  let names = Array.to_list (Array.map (Space.name space) dims) in
  let asc = Space.of_names names and desc = Space.of_names (List.rev names) in
  let project r =
    { r.aff with Aff.space = asc; coeffs = Array.init k (fun j -> r.aff.Aff.coeffs.(dims.(j))) }
  in
  let c =
    simplify ~tighten:false { space = asc; eqs = List.map project eqs; ges = List.map project ges }
  in
  let flip (a : Aff.t) =
    { a with Aff.space = desc; coeffs = Array.init k (fun j -> a.Aff.coeffs.(k - 1 - j)) }
  in
  fm_empty { space = desc; eqs = List.map flip c.eqs; ges = List.map flip c.ges }

type poly = t

module Feasible = struct
  module Dims = Map.Make (Int)

  (* Rows over a set of dimensions (ascending), each list sorted by
     position: a connected component of the store, or a piece of one being
     merged. *)
  type comp = { dims : int list; ceqs : row list; cges : row list }

  type t = {
    space : Space.t;
    owner : comp Dims.t;  (* every constrained dimension -> its component *)
    front : int;  (* position of the next prepended row (counts down) *)
    back : int;  (* position of the next appended row (counts up) *)
    fm_runs : int ref option;
  }

  let add ?(front = false) s ~eqs ~ges =
    (* Each new row as a one-row piece over its support, tagged with its
       position in the system. *)
    let as_pieces eq rows =
      List.mapi
        (fun i aff ->
          let r = { seq = (if front then s.front - i else s.back + i); aff } in
          let dims = ref [] in
          Array.iteri (fun d c -> if c <> 0 then dims := d :: !dims) aff.Aff.coeffs;
          { dims = List.rev !dims;
            ceqs = (if eq then [ r ] else []);
            cges = (if eq then [] else [ r ]) })
        rows
    in
    let width = max (List.length eqs) (List.length ges) in
    let s =
      if front then { s with front = s.front - width } else { s with back = s.back + width }
    in
    let consts, rows =
      List.partition (fun p -> p.dims = []) (as_pieces true eqs @ as_pieces false ges)
    in
    (* Constant rows belong to no component: check them on the spot. *)
    let holds p =
      List.for_all (fun r -> r.aff.Aff.const = 0) p.ceqs
      && List.for_all (fun r -> r.aff.Aff.const >= 0) p.cges
    in
    if not (List.for_all holds consts) then None
    else begin
      (* Merge the new rows with the components they touch, by union-find
         over dimensions, and re-check each merged component alone. *)
      let least c = List.hd c.dims in
      let touched =
        List.concat_map (fun p -> List.filter_map (fun d -> Dims.find_opt d s.owner) p.dims) rows
        |> List.sort_uniq (fun a b -> Int.compare (least a) (least b))
      in
      let parent = Hashtbl.create 16 in
      let rec find d =
        match Hashtbl.find_opt parent d with
        | Some e when e <> d ->
            let r = find e in
            Hashtbl.replace parent d r;
            r
        | _ -> d
      in
      let pieces = touched @ rows in
      List.iter
        (fun p ->
          List.iter
            (fun d ->
              let a = find (least p) and b = find d in
              if a <> b then Hashtbl.replace parent a b)
            p.dims)
        pieces;
      let groups = Hashtbl.create 8 in
      List.iter
        (fun p ->
          let g = find (least p) in
          Hashtbl.replace groups g (p :: Option.value ~default:[] (Hashtbl.find_opt groups g)))
        pieces;
      let by_seq rows = List.sort (fun a b -> Int.compare a.seq b.seq) (List.concat rows) in
      let merged =
        Hashtbl.fold
          (fun _ ps acc ->
            { dims = List.sort_uniq Int.compare (List.concat_map (fun p -> p.dims) ps);
              ceqs = by_seq (List.map (fun p -> p.ceqs) ps);
              cges = by_seq (List.map (fun p -> p.cges) ps) }
            :: acc)
          groups []
        |> List.sort (fun a b -> Int.compare (least a) (least b))
      in
      let rec check owner = function
        | [] -> Some { s with owner }
        | c :: rest ->
            Option.iter incr s.fm_runs;
            if component_empty s.space c.dims c.ceqs c.cges then None
            else check (List.fold_left (fun owner d -> Dims.add d c owner) owner c.dims) rest
      in
      check s.owner merged
    end

  let make ?fm_runs (p : poly) =
    add
      { space = p.space; owner = Dims.empty; front = -1; back = 0; fm_runs }
      ~eqs:p.eqs ~ges:p.ges
end

let is_rationally_empty t = Option.is_none (Feasible.make t)

(* Levels for bound descent: [levels.(k)] only constrains dims 0..k.
   [fm_budget], when given, caps the pos*neg combination count of every
   projection step: the elimination order here is forced (dims project
   top-down), so one pathological system can otherwise square its
   constraint count at every level.  Overflow raises [Fm_budget_exceeded],
   which [search] reports through the truncation channel. *)
let cascade ?fm_budget t =
  let n = Space.dim t.space in
  let levels = Array.make (max n 1) (simplify t) in
  if n = 0 then levels
  else begin
    levels.(n - 1) <- simplify t;
    for k = n - 1 downto 1 do
      levels.(k - 1) <-
        eliminate_one ?combo_budget:fm_budget ~tighten:true levels.(k)
          (Space.name t.space k)
    done;
    levels
  end

type bound = { mutable lo : Q.t option; mutable hi : Q.t option; mutable feasible : bool }

(* Candidate integer values for dim [k] of [level] under the partial
   assignment [vals] (indices < k assigned). *)
let dim_bounds level k vals =
  let b = { lo = None; hi = None; feasible = true } in
  let eval_rest a =
    (* All coeffs at indices > k are zero at this level. *)
    let acc = ref a.Aff.const in
    for j = 0 to k - 1 do
      if a.Aff.coeffs.(j) <> 0 then acc := C.add !acc (C.mul a.Aff.coeffs.(j) vals.(j))
    done;
    !acc
  in
  let tighten_lo q = match b.lo with Some l when Q.compare l q >= 0 -> () | _ -> b.lo <- Some q in
  let tighten_hi q = match b.hi with Some h when Q.compare h q <= 0 -> () | _ -> b.hi <- Some q in
  let handle_ge a =
    let c = a.Aff.coeffs.(k) in
    let v = eval_rest a in
    if c = 0 then (if v < 0 then b.feasible <- false)
    else
      let q = Q.make (-v) c in
      if c > 0 then tighten_lo q else tighten_hi q
  in
  let handle_eq a =
    let c = a.Aff.coeffs.(k) in
    let v = eval_rest a in
    if c = 0 then (if v <> 0 then b.feasible <- false)
    else begin
      let q = Q.make (-v) c in
      tighten_lo q;
      tighten_hi q
    end
  in
  List.iter handle_eq (eqs level);
  List.iter handle_ge (ges level);
  b

let default_prefer _k candidates =
  List.stable_sort (fun a b -> compare (abs a, a) (abs b, b)) candidates

let range_list lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

(* Candidate values for one dimension.  [Exact] windows cover every integer
   the bounds admit; a one-sided or absent bound only yields a [Truncated]
   window of [2*range + 1] values (or [Unbounded], nothing to anchor on), so
   a miss there proves nothing. *)
type window =
  | Window_exact of int list
  | Window_truncated of int list
  | Window_unbounded

let candidates_of_bounds ~range b =
  if not b.feasible then Window_exact []
  else
    let lo = Option.map Q.ceil b.lo and hi = Option.map Q.floor b.hi in
    match (lo, hi) with
    | Some l, Some h -> Window_exact (if l > h then [] else range_list l h)
    | Some l, None -> Window_truncated (range_list l (l + (2 * range)))
    | None, Some h -> Window_truncated (range_list (h - (2 * range)) h)
    | None, None -> Window_unbounded

let search ?(range = 64) ?(prefer = default_prefer) ?on_truncate ?fm_budget ~all
    ?(max_points = 1_000_000) t =
  let n = Space.dim t.space in
  let t = simplify t in
  if is_obviously_empty t then []
  else if n = 0 then [ [] ]
  else begin
    match cascade ?fm_budget t with
    | exception Fm_budget_exceeded ->
        (* Give up, reported like a window truncation: "no point found" is
           a search surrender here, never an emptiness verdict. *)
        (match on_truncate with Some f -> f "<fm-budget>" | None -> ());
        []
    | levels ->
    if Array.exists is_obviously_empty levels then []
    else begin
      let vals = Array.make n 0 in
      let results = ref [] in
      let count = ref 0 in
      let truncated name =
        match on_truncate with Some f -> f name | None -> ()
      in
      let exception Done in
      let rec go k =
        if k = n then begin
          incr count;
          if !count > max_points then failwith "Poly.enumerate: too many points";
          results :=
            List.init n (fun j -> (Space.name t.space j, vals.(j))) :: !results;
          if not all then raise Done
        end
        else begin
          let b = dim_bounds levels.(k) k vals in
          let cands =
            match candidates_of_bounds ~range b with
            | Window_exact c -> c
            | Window_truncated c ->
                (* Exhaustive enumeration cannot window-cap: a one-sided
                   bound is as unbounded as none at all. *)
                if all then
                  failwith ("Poly.enumerate: unbounded dimension " ^ Space.name t.space k)
                else begin
                  truncated (Space.name t.space k);
                  c
                end
            | Window_unbounded ->
                if all then
                  failwith ("Poly.enumerate: unbounded dimension " ^ Space.name t.space k)
                else begin
                  truncated (Space.name t.space k);
                  range_list (-range) range
                end
          in
          let cands = if all then cands else prefer k cands in
          List.iter (fun v -> vals.(k) <- v; go (k + 1)) cands
        end
      in
      (try go 0 with Done -> ());
      List.rev !results
    end
  end

let sample ?range ?prefer ?on_truncate ?fm_budget t =
  match search ?range ?prefer ?on_truncate ?fm_budget ~all:false t with
  | [] -> None
  | p :: _ -> Some p

let enumerate ?max_points t = search ~all:true ?max_points t

let is_integrally_empty ?range ?on_truncate t = sample ?range ?on_truncate t = None

let mem t lookup =
  List.for_all (fun a -> Aff.eval a lookup = 0) t.eqs
  && List.for_all (fun a -> Aff.eval a lookup >= 0) t.ges

(* --- Set difference ----------------------------------------------------- *)

let subtract p q =
  if not (Space.equal p.space q.space) then invalid_arg "Poly.subtract: space mismatch";
  let q = simplify q in
  if is_obviously_empty q then [ p ]
  else begin
    (* Walk q's constraints; piece_i satisfies the first i-1 and violates the
       i-th, giving disjoint pieces covering p \ q. Equalities contribute two
       violation branches. *)
    let pieces = ref [] in
    let kept = ref p in
    let add_piece piece =
      let piece = simplify piece in
      if not (is_obviously_empty piece || is_rationally_empty piece) then
        pieces := piece :: !pieces
    in
    List.iter
      (fun a ->
        add_piece (add_ge !kept (Aff.add_const (Aff.neg a) (-1)));
        kept := add_ge !kept a)
      q.ges;
    List.iter
      (fun a ->
        add_piece (add_ge !kept (Aff.add_const a (-1)));
        add_piece (add_ge !kept (Aff.add_const (Aff.neg a) (-1)));
        kept := add_eq !kept a)
      q.eqs;
    List.rev !pieces
  end

let affine_hull_eqs t = (simplify t).eqs

let pp ppf t =
  let pp_list sep ppf l =
    Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "%s@ " sep) Aff.pp ppf l
  in
  Format.fprintf ppf "@[<hv>{ %a" Space.pp t.space;
  if t.eqs <> [] then Format.fprintf ppf " :@ @[%a = 0@]" (pp_list " = 0, ") t.eqs;
  if t.ges <> [] then
    Format.fprintf ppf "%s@ @[%a >= 0@]" (if t.eqs = [] then " :" else ",") (pp_list " >= 0, ") t.ges;
  Format.fprintf ppf " }@]"
