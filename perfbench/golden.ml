(* Golden outputs of the benchmark: per workload, input variant and
   horizon, the digest of the module's observable state (leo-dense,
   beacon-sparse) or the fleet fingerprint (constellation-fleet). The
   table is written by [perfbench.exe --record-golden], which first proves
   every short-horizon value against the reference paths (the Per_tick
   engine; sequential Cluster.run and Fleet at 1 and 2 domains). The
   campaign workload's golden output is that every verdict is contained. *)

let table : (string * int * int * string) list =
  [ ("leo-dense", 0, 40000, "7885063dc92a6a341388081ee63f6c09");
    ("leo-dense", 0, 13000000, "6ad14d6db685cff28c6d615668c6596d");
    ("leo-dense", 1, 40000, "5c53628fc5629701667744580e18c365");
    ("leo-dense", 1, 13000000, "9194e6fc0a3354fac2b8c8bd8b1fcf44");
    ("leo-dense", 2, 40000, "47eb738a49a9482a7080b92eeab8f19c");
    ("leo-dense", 2, 13000000, "ca4ad1fe2d1baf461629d2ac5dbd89cc");
    ("leo-dense", 3, 40000, "71a8e71b30c0e42bdbbda1f735bc6d9a");
    ("leo-dense", 3, 13000000, "e0051f5aebfe124e58d6828898f00b26");
    ("leo-dense", 4, 40000, "4453b1f54bb3e06aedc1962baf7f42d6");
    ("leo-dense", 4, 13000000, "6b55b14332a1223d6d0a07bf4bd1e167");
    ("leo-dense", 5, 40000, "9f49538eed90d8e0786db820689134ed");
    ("leo-dense", 5, 13000000, "8bbbfe7117a1bf316fc60b6317a613b5");
    ("leo-dense", 6, 40000, "0d8cb8d08c94c2edf0a7666fb12412b4");
    ("leo-dense", 6, 13000000, "ab0bee4a5c6d751e7db837503fdcf83d");
    ("leo-dense", 7, 40000, "c647b31f0abfaf3d2793bda24a71c997");
    ("leo-dense", 7, 13000000, "58bc3824cc6ddaf65178c03c125970bd");
    ("leo-dense", 8, 40000, "f0f9c1b811c42d9fc977dba63a32949d");
    ("leo-dense", 8, 13000000, "bfe16d2ba3dcf58cc8d2950b1a4bda02");
    ("leo-dense", 9, 40000, "0a86631d877cd0c0086402d9e8ee9d14");
    ("leo-dense", 9, 13000000, "60917e1301d1ccea0069b2e005e6ce72");
    ("leo-dense", 10, 40000, "0fa78b5dcefdf0419e821651e2731a3c");
    ("leo-dense", 10, 13000000, "9818498576b9b0bf639cc1345275c18f");
    ("leo-dense", 11, 40000, "4f80e1bfe6d9b24feba7e0133edeb6fd");
    ("leo-dense", 11, 13000000, "b7a5d6b1e950f17104e53eeb3ce050db");
    ("leo-dense", 12, 40000, "e2aa881eb9124acbedd7988ec8087e19");
    ("leo-dense", 12, 13000000, "e6443da8528059fef8e79523f52737e0");
    ("leo-dense", 13, 40000, "d8da86865914e5d0fd337f57af6d5744");
    ("leo-dense", 13, 13000000, "777e9dfdc35b0401004f131087ac59ff");
    ("leo-dense", 14, 40000, "f631b8b5239d0814b0567c810dbcd4b1");
    ("leo-dense", 14, 13000000, "7f510ba9d3193b3850a0e5b47e128213");
    ("leo-dense", 15, 40000, "8909ef1de6d87fc6b27192e66b519c9f");
    ("leo-dense", 15, 13000000, "5c9b06524ec29fa12f1d12e98ebb1b2c");
    ("beacon-sparse", 0, 200000, "a04744c03a72d8f0bd8bfc3dd473de92");
    ("beacon-sparse", 0, 500000000, "c18a7ba088669941c9cf1c0b6be459e7");
    ("beacon-sparse", 1, 200000, "b7ba6c79cb2d2e9d4c8c99844db6a2a3");
    ("beacon-sparse", 1, 500000000, "f8a43bc2f4bf76c8ca41a11d16e0ceb4");
    ("beacon-sparse", 2, 200000, "b52b2f9c0dde30d5f0d60957ae92f37a");
    ("beacon-sparse", 2, 500000000, "31e3b035d1087dda511082dcd25589a9");
    ("beacon-sparse", 3, 200000, "1cd4df6dc8078cea0d2e792b0d7cea91");
    ("beacon-sparse", 3, 500000000, "27c6cffb8b8071455091b13fafcfcb6e");
    ("beacon-sparse", 4, 200000, "861c85c12cc4ff094c11465a801d2bd9");
    ("beacon-sparse", 4, 500000000, "8318d50223877b8d3e1e19a90069b8da");
    ("beacon-sparse", 5, 200000, "81302a943c4bc47f8316dcd48f9f9723");
    ("beacon-sparse", 5, 500000000, "24c93903abeb18bdceb218ad18de458d");
    ("beacon-sparse", 6, 200000, "1fd0e3ade9d1f3020a831511571cfaf3");
    ("beacon-sparse", 6, 500000000, "76c1ea762f1948bce290dca2d599ff94");
    ("beacon-sparse", 7, 200000, "02851e9463c4be989998fd5f0ac6d58e");
    ("beacon-sparse", 7, 500000000, "59ab88d04dada3f4d604e4f7a2199e68");
    ("beacon-sparse", 8, 200000, "aded40ae1f13224db17c4c8e9e0791df");
    ("beacon-sparse", 8, 500000000, "7a39156afccbc23e0802cb3c41e1ce9f");
    ("beacon-sparse", 9, 200000, "8214c96ecd814371063847a65ce488e6");
    ("beacon-sparse", 9, 500000000, "19b7f3263196091d03c0357cd14af430");
    ("beacon-sparse", 10, 200000, "6eb38db29c7bc6c3c4a75245f7ca9535");
    ("beacon-sparse", 10, 500000000, "167f5fa1c9ee96a1dd8591b7d6517514");
    ("beacon-sparse", 11, 200000, "0364385314290757b0c3e2f6a8e13264");
    ("beacon-sparse", 11, 500000000, "38422ee36a0ac7f84edefe5305de2881");
    ("beacon-sparse", 12, 200000, "ed36bde0ebd09f64ea81062731a2624c");
    ("beacon-sparse", 12, 500000000, "255cffd31c2583e36007182fe7871a1b");
    ("beacon-sparse", 13, 200000, "ff9308a08242a8f82e2a31d39277063a");
    ("beacon-sparse", 13, 500000000, "5ae32a1bf11ee58d8894b92efa4796ae");
    ("beacon-sparse", 14, 200000, "6ce3f2943d96138fcd2f0b8577687d4d");
    ("beacon-sparse", 14, 500000000, "ae135d481bb29e22921c50647f0ba4e0");
    ("beacon-sparse", 15, 200000, "035c6b5ae0763138d21fa90eba5e55f8");
    ("beacon-sparse", 15, 500000000, "4805ec2d375b35e5a7fc4d321f62fa71");
    ("constellation-fleet", 0, 4000, "08a8273ce491c7bb4a6db12f59877a08");
    ("constellation-fleet", 0, 400000, "f49d044709e05dfac8aef230ba3ff7aa");
    ("constellation-fleet", 1, 4000, "b6501e70af4437ffa388083deb3e91c3");
    ("constellation-fleet", 1, 400000, "bb212d9bf945fc4943af7e71212264cc");
    ("constellation-fleet", 2, 4000, "969f73ed4608d1d2100f7d0c54d774dc");
    ("constellation-fleet", 2, 400000, "51b6a802c9032d48f1651a2e1efb984b");
    ("constellation-fleet", 3, 4000, "560635d64f44aecbf0447b1086b50351");
    ("constellation-fleet", 3, 400000, "9bc91bdf05dd100eadc10df1ac2c03bc");
    ("constellation-fleet", 4, 4000, "1b9dc12d0adf42037cebb0732dea73ba");
    ("constellation-fleet", 4, 400000, "3869d11b75203b94d804017889fb09eb");
    ("constellation-fleet", 5, 4000, "77329095574297a330788bf68dc99072");
    ("constellation-fleet", 5, 400000, "a5ab5f9789ab3139115a02ba14631860");
    ("constellation-fleet", 6, 4000, "bacc89f5e427b4a2c4f22a450e906bb5");
    ("constellation-fleet", 6, 400000, "8aa2664a666710838834ed12173c6c56");
    ("constellation-fleet", 7, 4000, "8226394550052a24800f11bb850c3823");
    ("constellation-fleet", 7, 400000, "7bc7572df8c1f69437e2f130db96ada6");
    ("constellation-fleet", 8, 4000, "b873545a3f0672df59af3f11fa3a1f47");
    ("constellation-fleet", 8, 400000, "d0ad5f2e4f2979fa2a30970795535b2c");
    ("constellation-fleet", 9, 4000, "c2a87578d83c4695a6143b3867a083ff");
    ("constellation-fleet", 9, 400000, "62c85a3a023e633e4d83c5ebb4d0df6a");
    ("constellation-fleet", 10, 4000, "d3a34d620d28ede0059613ad8f8b73da");
    ("constellation-fleet", 10, 400000, "660993f54c70fe0ca83ba4e310de8e75");
    ("constellation-fleet", 11, 4000, "ac7b1f0478a3eea6b6404d503c7f971a");
    ("constellation-fleet", 11, 400000, "880986f5690340be91a1cb599fb47258");
    ("constellation-fleet", 12, 4000, "ad15751b61f05e5f23602c59dcdc6268");
    ("constellation-fleet", 12, 400000, "176e2e342dae8f020d9e0ae48c81f0dc");
    ("constellation-fleet", 13, 4000, "1360f9c3b8ea4534823e455dbd6663d6");
    ("constellation-fleet", 13, 400000, "a126f80f28bda2c4fcc4e75b275bd1c3");
    ("constellation-fleet", 14, 4000, "3d06fc006c3eca8cfe3758f96175c420");
    ("constellation-fleet", 14, 400000, "53c56778134f2a296733ce5e724b961e");
    ("constellation-fleet", 15, 4000, "901fef789441f11275aed4a1ebfb0f17");
    ("constellation-fleet", 15, 400000, "df785fac209d72a759a41bd28c38905f") ]

let expected kind ~variant ~horizon =
  match kind with
  | Workloads.Campaign -> Some "contained"
  | _ ->
    let name = Workloads.name kind in
    List.find_map
      (fun (w, v, h, d) ->
        if w = name && v = variant && h = horizon then Some d else None)
      table
