let run () = Treelint_r10.Exporter.user_only 4
