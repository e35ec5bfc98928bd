(* Dense reference model of the GraphBLAS semantics: containers are
   ['a option] arrays (None = no stored entry), every operation is the
   naive O(n^2)/O(n^3) definition from the C API spec, including the full
   mask / accumulate / replace write step.  The sparse kernels are tested
   against this model. *)

open Gbtl

type 'a vec = 'a option array
type 'a mat = 'a option array array

let vec_of_svector v : 'a vec =
  let d = Array.make (Svector.size v) None in
  Svector.iter (fun i x -> d.(i) <- Some x) v;
  d

let svector_of_vec dt (d : 'a vec) =
  let v = Svector.create dt (Array.length d) in
  Array.iteri (fun i -> function Some x -> Svector.set v i x | None -> ()) d;
  v

let mat_of_smatrix m : 'a mat =
  let d = Array.make_matrix (Smatrix.nrows m) (Smatrix.ncols m) None in
  Smatrix.iter (fun r c x -> d.(r).(c) <- Some x) m;
  d

let smatrix_of_mat_auto dt (d : 'a mat) =
  let nrows = Array.length d in
  let ncols = if nrows = 0 then 0 else Array.length d.(0) in
  let triples = ref [] in
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun c -> function
          | Some x -> triples := (r, c, x) :: !triples
          | None -> ())
        row)
    d;
  Smatrix.of_coo dt nrows ncols (List.rev !triples)

let smatrix_of_mat dt nrows ncols (d : 'a mat) =
  let triples = ref [] in
  for r = nrows - 1 downto 0 do
    for c = ncols - 1 downto 0 do
      match d.(r).(c) with
      | Some x -> triples := (r, c, x) :: !triples
      | None -> ()
    done
  done;
  Smatrix.of_coo dt nrows ncols !triples

let entries_of_vec (d : 'a vec) =
  let e = Entries.create () in
  Array.iteri (fun i -> function Some x -> Entries.push e i x | None -> ()) d;
  e

let rows_of_mat (d : 'a mat) = Array.map entries_of_vec d

(* Reference masks: a dense boolean "allowed" array. *)
let v_allowed_of_mask mask n =
  match mask with
  | Mask.No_vmask -> Array.make n true
  | Mask.Vmask { dense; complemented } ->
    Array.map (fun b -> b <> complemented) dense
  | Mask.Vmask_sparse { size; idx; complemented } ->
    let dense = Array.make size false in
    Array.iter (fun i -> dense.(i) <- true) idx;
    Array.map (fun b -> b <> complemented) dense

let m_allowed_of_mask mask nrows ncols =
  match mask with
  | Mask.No_mmask -> Array.make_matrix nrows ncols true
  | Mask.Mmask { m; complemented } ->
    let d = Array.make_matrix nrows ncols false in
    Smatrix.iter (fun r c b -> d.(r).(c) <- b) m;
    Array.map (Array.map (fun b -> b <> complemented)) d

(* The write step C<M,z> = C (.) T on one cell. *)
let write_cell ~allowed ~accum ~replace c t =
  let z =
    match accum with
    | None -> t
    | Some f -> (
      match c, t with
      | None, None -> None
      | Some x, None -> Some x
      | None, Some y -> Some y
      | Some x, Some y -> Some (f x y))
  in
  if allowed then z else if replace then None else c

let write_vec ~mask ~accum ~replace (c : 'a vec) (t : 'a vec) : 'a vec =
  let allowed = v_allowed_of_mask mask (Array.length c) in
  Array.init (Array.length c) (fun i ->
      write_cell ~allowed:allowed.(i) ~accum ~replace c.(i) t.(i))

let write_mat ~mask ~accum ~replace (c : 'a mat) (t : 'a mat) : 'a mat =
  let nrows = Array.length c in
  let ncols = if nrows = 0 then 0 else Array.length c.(0) in
  let allowed = m_allowed_of_mask mask nrows ncols in
  Array.init nrows (fun r ->
      Array.init ncols (fun cl ->
          write_cell ~allowed:allowed.(r).(cl) ~accum ~replace c.(r).(cl)
            t.(r).(cl)))

let accum_f op = Option.map (fun (op : _ Binop.t) -> op.Binop.f) op

(* Raw results (the "T" of each operation). *)

let mxv_t sr (a : 'a mat) (u : 'a vec) : 'a vec =
  Array.map
    (fun row ->
      let acc = ref None in
      Array.iteri
        (fun j aij ->
          match aij, u.(j) with
          | Some x, Some y ->
            let p = Semiring.mul sr x y in
            acc :=
              (match !acc with
              | None -> Some p
              | Some s -> Some (Semiring.add sr s p))
          | _, _ -> ())
        row;
      !acc)
    a

let transpose_mat (a : 'a mat) : 'a mat =
  let nrows = Array.length a in
  let ncols = if nrows = 0 then 0 else Array.length a.(0) in
  Array.init ncols (fun c -> Array.init nrows (fun r -> a.(r).(c)))

let vxm_t sr (u : 'a vec) (a : 'a mat) : 'a vec =
  let nrows = Array.length a in
  let ncols = if nrows = 0 then 0 else Array.length a.(0) in
  Array.init ncols (fun j ->
      let acc = ref None in
      for i = 0 to nrows - 1 do
        match u.(i), a.(i).(j) with
        | Some x, Some y ->
          let p = Semiring.mul sr x y in
          acc :=
            (match !acc with
            | None -> Some p
            | Some s -> Some (Semiring.add sr s p))
        | _, _ -> ()
      done;
      !acc)

let mxm_t sr (a : 'a mat) (b : 'a mat) : 'a mat =
  let n = Array.length a in
  let inner = if n = 0 then 0 else Array.length a.(0) in
  let p = if Array.length b = 0 then 0 else Array.length b.(0) in
  Array.init n (fun i ->
      Array.init p (fun j ->
          let acc = ref None in
          for k = 0 to inner - 1 do
            match a.(i).(k), b.(k).(j) with
            | Some x, Some y ->
              let v = Semiring.mul sr x y in
              acc :=
                (match !acc with
                | None -> Some v
                | Some s -> Some (Semiring.add sr s v))
            | _, _ -> ()
          done;
          !acc))

(* The masked dot product C<M> = A ⊕.⊗ Bᵀ as a two-pointer merge of
   A(i,:) and B(j,:) for every stored-true M(i,j) — the kernel Matmul
   used before its marker kernel, kept as the reference that pins the
   new kernel's summation order. *)
let mxm_dot_merge sr ~(mask : bool Smatrix.t) a b =
  let arp = Smatrix.unsafe_rowptr a
  and aci = Smatrix.unsafe_colidx a
  and avs = Smatrix.unsafe_values a in
  let brp = Smatrix.unsafe_rowptr b
  and bci = Smatrix.unsafe_colidx b
  and bvs = Smatrix.unsafe_values b in
  let rows =
    Array.init (Smatrix.nrows a) (fun i ->
        let row = Entries.create () in
        Smatrix.iter_row
          (fun j allowed ->
            if allowed then begin
              let p = ref arp.(i)
              and pe = arp.(i + 1)
              and q = ref brp.(j)
              and qe = brp.(j + 1) in
              let acc = ref None in
              while !p < pe && !q < qe do
                let ka = aci.(!p) and kb = bci.(!q) in
                if ka < kb then incr p
                else if kb < ka then incr q
                else begin
                  let v = Semiring.mul sr avs.(!p) bvs.(!q) in
                  acc :=
                    Some
                      (match !acc with
                      | None -> v
                      | Some s -> Semiring.add sr s v);
                  incr p;
                  incr q
                end
              done;
              Option.iter (Entries.push row j) !acc
            end)
          mask i;
        row)
  in
  Smatrix.of_rows_unsafe (Smatrix.dtype a) ~nrows:(Smatrix.nrows a)
    ~ncols:(Smatrix.ncols mask) rows

let ewise_vec_t ~union (op : 'a Binop.t) (u : 'a vec) (v : 'a vec) : 'a vec =
  Array.init (Array.length u) (fun i ->
      match u.(i), v.(i) with
      | Some x, Some y -> Some (op.Binop.f x y)
      | Some x, None -> if union then Some x else None
      | None, Some y -> if union then Some y else None
      | None, None -> None)

let ewise_mat_t ~union op (a : 'a mat) (b : 'a mat) : 'a mat =
  Array.init (Array.length a) (fun r -> ewise_vec_t ~union op a.(r) b.(r))

let apply_vec_t (f : 'a Unaryop.t) (u : 'a vec) : 'a vec =
  Array.map (Option.map f.Unaryop.f) u

let reduce_rows_t (m : 'a Monoid.t) (a : 'a mat) : 'a vec =
  Array.map
    (fun row ->
      Array.fold_left
        (fun acc x ->
          match acc, x with
          | None, Some v -> Some (Monoid.reduce m m.Monoid.identity v)
          | Some s, Some v -> Some (Monoid.reduce m s v)
          | acc, None -> acc)
        None row)
    a

let reduce_scalar_t (m : 'a Monoid.t) (a : 'a mat) : 'a =
  Array.fold_left
    (fun acc row ->
      Array.fold_left
        (fun acc -> function Some v -> Monoid.reduce m acc v | None -> acc)
        acc row)
    m.Monoid.identity a

(* Equality helpers for alcotest. *)

let vec_testable dt =
  let pp fmt (v : 'a vec) =
    Array.iteri
      (fun i -> function
        | Some x -> Format.fprintf fmt "%d:%s " i (Dtype.to_string dt x)
        | None -> ())
      v
  in
  let eq a b =
    Array.length a = Array.length b
    && Array.for_all2
         (fun x y ->
           match x, y with
           | None, None -> true
           | Some x, Some y -> Dtype.equal_values dt x y
           | _, _ -> false)
         a b
  in
  Alcotest.testable pp eq

let mat_testable dt =
  let vt = vec_testable dt in
  Alcotest.(array vt)
