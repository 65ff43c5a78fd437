module Hash_fn = Dqo_hash.Hash_fn
module Int_col = Dqo_data.Int_col

type parts = { keys : int array array; values : int array array }

let scatter ~bucket_of ~buckets ~keys ~values =
  if Int_col.length values <> Int_col.length keys then
    invalid_arg "Partition: keys/values length mismatch";
  (* Counting pass, then exclusive prefix sums, then scatter — the
     classic two-pass radix partition, streaming chunk-wise. *)
  let counts = Array.make buckets 0 in
  Int_col.iter_seg keys ~f:(fun _ buf off len ->
      for i = off to off + len - 1 do
        let b = bucket_of (Array.unsafe_get buf i) in
        counts.(b) <- counts.(b) + 1
      done);
  let out_keys = Array.init buckets (fun b -> Array.make counts.(b) 0) in
  let out_values = Array.init buckets (fun b -> Array.make counts.(b) 0) in
  let cursor = Array.make buckets 0 in
  Int_col.iter_seg2 keys values ~f:(fun _ kb ko vb vo len ->
      for i = 0 to len - 1 do
        let k = Array.unsafe_get kb (ko + i) in
        let b = bucket_of k in
        let c = cursor.(b) in
        out_keys.(b).(c) <- k;
        out_values.(b).(c) <- Array.unsafe_get vb (vo + i);
        cursor.(b) <- c + 1
      done);
  { keys = out_keys; values = out_values }

let by_hash ?(hash = Hash_fn.Murmur3) ~partitions ~keys ~values () =
  if partitions < 1 then invalid_arg "Partition.by_hash: partitions < 1";
  scatter
    ~bucket_of:(fun k -> Hash_fn.apply hash k mod partitions)
    ~buckets:partitions ~keys ~values

let by_dense_key ~lo ~hi ~keys ~values =
  if hi < lo then invalid_arg "Partition.by_dense_key: hi < lo";
  let buckets =
    match Int_col.range lo hi with
    | Some n -> n
    | None -> invalid_arg "Partition.by_dense_key: domain too large"
  in
  scatter
    ~bucket_of:(fun k ->
      if k < lo || k > hi then
        invalid_arg "Partition.by_dense_key: key outside domain";
      k - lo)
    ~buckets ~keys ~values

let partition_count p = Array.length p.keys

let total_rows p =
  Array.fold_left (fun acc a -> acc + Array.length a) 0 p.keys
