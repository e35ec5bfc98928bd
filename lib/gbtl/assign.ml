let dim_err = Error.raise_dims

(* Region update for one index space.  [n] is the output dimension,
   [targets] the (duplicate-free) selected positions, [source pos] the
   source entry for selection position [pos].  Returns the "T" of the
   write step: old entries outside the region, updated region inside. *)
let overlay_entries ~n ~c_lookup ~c_entries ~targets ~source ~accum =
  let in_region = Array.make n false in
  let region_value : 'a option array = Array.make n None in
  Array.iteri
    (fun pos i ->
      in_region.(i) <- true;
      let v =
        match accum, source pos, c_lookup i with
        | _, None, None -> None
        | _, (Some _ as sv), None -> sv
        | None, None, Some _ -> None (* no accum: uncovered old entry dies *)
        | None, (Some _ as sv), Some _ -> sv
        | Some _, None, (Some _ as cv) -> cv
        | Some f, Some sv, Some cv -> Some (f cv sv)
      in
      region_value.(i) <- v)
    targets;
  let t = Entries.create () in
  let push_old i v = if not in_region.(i) then Entries.push t i v in
  (* Merge walk: old entries (sorted) interleaved with region positions.
     Region positions can be arbitrary, so walk a sorted copy. *)
  let sorted_targets = Array.copy targets in
  Array.sort Int.compare sorted_targets;
  let nc = Entries.length c_entries and nt = Array.length sorted_targets in
  let i = ref 0 and j = ref 0 in
  while !i < nc || !j < nt do
    let next_c = if !i < nc then Entries.get_idx c_entries !i else max_int in
    let next_t = if !j < nt then sorted_targets.(!j) else max_int in
    if next_c < next_t then begin
      push_old next_c (Entries.get_val c_entries !i);
      incr i
    end
    else begin
      (match region_value.(next_t) with
      | Some v -> Entries.push t next_t v
      | None -> ());
      if next_c = next_t then incr i;
      incr j
    end
  done;
  t

let vector ?(mask = Mask.No_vmask) ?accum ?(replace = false) ~out u idx =
  let n = Svector.size out in
  let targets = Index_set.resolve_unique idx n in
  if Svector.size u <> Array.length targets then
    dim_err ~op:"assign"
      ~expected:(Printf.sprintf "source size %d" (Array.length targets))
      ~actual:(Error.size_str (Svector.size u));
  let accum_f = Option.map (fun (op : _ Binop.t) -> op.Binop.f) accum in
  let t =
    overlay_entries ~n ~c_lookup:(Svector.get out)
      ~c_entries:(Svector.entries out) ~targets ~source:(Svector.get u)
      ~accum:accum_f
  in
  Output.write_vector ~mask ~accum:None ~replace ~out ~t

(* Ascending positions a non-complemented mask selects. *)
let iter_selected f = function
  | Mask.Vmask { dense; _ } -> Array.iteri (fun i b -> if b then f i) dense
  | Mask.Vmask_sparse { idx; _ } -> Array.iter f idx
  | Mask.No_vmask -> assert false

(* [w<m,z>(:) = s] without materializing the region: an allowed position
   ends as [s] (or [accum c s] over an old entry [c]); any other keeps
   its old entry, or loses it under [replace]. *)
let vector_scalar_all ~mask ~accum ~replace ~out s =
  let n = Svector.size out in
  Mask.v_check_size mask n;
  let value =
    match accum with
    | None -> fun _ -> s
    | Some (op : _ Binop.t) -> (
      function Some c -> op.Binop.f c s | None -> s)
  in
  match mask with
  | (Mask.Vmask { complemented = false; _ }
    | Mask.Vmask_sparse { complemented = false; _ })
    when (not replace) && Svector.stays_dense out ->
    (* Only the mask's positions change: write them in place. *)
    iter_selected (fun i -> Svector.set out i (value (Svector.get out i))) mask
  | Mask.Vmask { complemented = false; _ }
  | Mask.Vmask_sparse { complemented = false; _ } ->
    (* One merge of C with the mask's positions; [replace] drops the
       rest of C. *)
    let c = Svector.entries out in
    let nc = Entries.length c and k = ref 0 in
    let t = Entries.create () in
    let keep_below i =
      while !k < nc && Entries.get_idx c !k < i do
        if not replace then
          Entries.push t (Entries.get_idx c !k) (Entries.get_val c !k);
        incr k
      done
    in
    iter_selected
      (fun i ->
        keep_below i;
        let old =
          if !k < nc && Entries.get_idx c !k = i then begin
            let v = Entries.get_val c !k in
            incr k;
            Some v
          end
          else None
        in
        Entries.push t i (value old))
      mask;
    keep_below n;
    Svector.replace_contents out t
  | Mask.No_vmask | Mask.Vmask _ | Mask.Vmask_sparse _ ->
    (* No mask or a complemented one: one ordered walk of the positions
       and C's entries. *)
    let allowed = Mask.v_cursor mask in
    let t = Entries.create () and next = ref 0 in
    let fill_below stop =
      for i = !next to stop - 1 do
        if allowed i then Entries.push t i s
      done
    in
    Svector.iter
      (fun i c ->
        fill_below i;
        if allowed i then Entries.push t i (value (Some c))
        else if not replace then Entries.push t i c;
        next := i + 1)
      out;
    fill_below n;
    Svector.replace_contents out t

let vector_scalar ?(mask = Mask.No_vmask) ?accum ?(replace = false) ~out s idx =
  match idx with
  | Index_set.All -> vector_scalar_all ~mask ~accum ~replace ~out s
  | Index_set.List _ | Index_set.Range _ ->
    let n = Svector.size out in
    let targets = Index_set.resolve_unique idx n in
    let accum_f = Option.map (fun (op : _ Binop.t) -> op.Binop.f) accum in
    let t =
      overlay_entries ~n ~c_lookup:(Svector.get out)
        ~c_entries:(Svector.entries out) ~targets
        ~source:(fun _ -> Some s)
        ~accum:accum_f
    in
    Output.write_vector ~mask ~accum:None ~replace ~out ~t

(* Matrix region assign: per-row overlay over the selected columns. *)
let matrix_overlay ?(mask = Mask.No_mmask) ?accum ?(replace = false) ~out
    ~row_targets ~col_targets ~source_row () =
  let accum_f = Option.map (fun (op : _ Binop.t) -> op.Binop.f) accum in
  let nrows = Smatrix.nrows out and ncols = Smatrix.ncols out in
  let row_src = Array.make nrows (-1) in
  Array.iteri (fun p r -> row_src.(r) <- p) row_targets;
  let t =
    Array.init nrows (fun r ->
        if row_src.(r) < 0 then Smatrix.row_entries out r
        else
          overlay_entries ~n:ncols
            ~c_lookup:(fun c -> Smatrix.get out r c)
            ~c_entries:(Smatrix.row_entries out r)
            ~targets:col_targets
            ~source:(source_row row_src.(r))
            ~accum:accum_f)
  in
  Output.write_matrix ~mask ~accum:None ~replace ~out ~t

let matrix ?mask ?accum ?replace ~out a rows cols =
  let row_targets = Index_set.resolve_unique rows (Smatrix.nrows out) in
  let col_targets = Index_set.resolve_unique cols (Smatrix.ncols out) in
  if Smatrix.shape a <> (Array.length row_targets, Array.length col_targets)
  then
    dim_err ~op:"assign"
      ~expected:
        (Printf.sprintf "source %s"
           (Error.shape_str (Array.length row_targets)
              (Array.length col_targets)))
      ~actual:(Error.shape_str (Smatrix.nrows a) (Smatrix.ncols a));
  matrix_overlay ?mask ?accum ?replace ~out ~row_targets ~col_targets
    ~source_row:(fun p c -> Smatrix.get a p c)
    ()

let matrix_scalar ?mask ?accum ?replace ~out s rows cols =
  let row_targets = Index_set.resolve_unique rows (Smatrix.nrows out) in
  let col_targets = Index_set.resolve_unique cols (Smatrix.ncols out) in
  matrix_overlay ?mask ?accum ?replace ~out ~row_targets ~col_targets
    ~source_row:(fun _ _ -> Some s)
    ()
