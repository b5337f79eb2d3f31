let block_size = 256

let block_lifetime = Time.days 30.0

let request_min = Time.hours 1.0

let request_max = Time.hours 95.0

let[@inline] request_gap rng = Rng.float_in rng request_min request_max
