let via_alias x = x + 1
let via_open x = x + 2

module Nested = struct
  let inner x = x + 3
end

let user_only x = x + 4
let test_only x = x + 5
let own_only x = x + 6
let _uses_own = own_only 0
