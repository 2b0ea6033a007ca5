let check () = Treelint_r10.Exporter.test_only 5 = 10
