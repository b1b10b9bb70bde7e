(* Pinned outputs. Regenerate with [bench.exe --print-pins WORKLOAD] after
   a change that is meant to alter them. *)

let default_seed = 1

(* sim-steady, default seed: op label -> digest of [Sim_stats.to_json]. *)
let sim_steady =
  [
    ("synthetic/base", "8a112b9af946b230fe084a2287e85aad");
    ("synthetic/NL_NT", "7525587ae8884290674f2c61ab9d6318");
    ("synthetic/L_NT", "4d98175a017e04168cfc2a4773809d0d");
    ("synthetic/NL_T", "6c23072a971411670973bdb4b3b63e71");
    ("synthetic/L_T", "dd1d3c1bb7c83a508bdded21874c6e84");
    ("heap/base", "56bad6b7283c63ba7e677177acf51229");
    ("heap/NL_NT", "4a50738a5047090d14c511d1f9cb3840");
    ("heap/L_NT", "0d51a902d62c7b575e0a7a588e4080fa");
    ("heap/NL_T", "d3518d0c40f20df4709a6161976dea4b");
    ("heap/L_T", "6fb5f8827a8a96f93b0e40293db7b5f0");
    ("dgemm/base", "1e292388bcf3641794df2bd70e702bc1");
    ("dgemm/NL_NT", "ff49c455ec72b68ca38861871b61c9be");
    ("dgemm/L_NT", "db18eae5df7a7249748468c305f80aa6");
    ("dgemm/NL_T", "57bf4f83057b5aa08cda79a546e8cfe5");
    ("dgemm/L_T", "ba14af2e339d3f59d00f1d9a1a2ff276");
    ("multi-contended/base", "1ee11a9db208150e8c5afe2c291d2422");
    ("multi-contended/NL_NT", "070246958cc49cc8e42f850c3d959db6");
    ("multi-contended/L_NT", "19bb26f79650726ddfd0ac0e69201744");
    ("multi-contended/NL_T", "d15e2574137984f1fc986cb135083d54");
    ("multi-contended/L_T", "4acf06806761735912e53154e9ef29dd");
    ("synthetic+sync/NL_NT", "e20fe8b239245efa29fb4b2f2174c376");
    ("synthetic+sync/L_NT", "540addf98a5a09b9414590ad98da7cb8");
    ("synthetic+sync/NL_T", "be68ecaca0719f15079601f814cabcd4");
    ("synthetic+sync/L_T", "49089deea9defbd13b1d4211bdac9efb");
    ("synthetic+queued/NL_NT", "ad211905bed08ddde4b4d7a56a74b0a4");
    ("synthetic+queued/L_NT", "f317a1bf20bf5e6b7a28e486e2033341");
    ("synthetic+queued/NL_T", "95983004d0cee95f54fd63b93a5ba3fb");
    ("synthetic+queued/L_T", "7fea0ca321b2bdbf25707b95376be19a");
  ]

(* suite-quick (seed-independent): job -> [Artifact.fingerprint]. *)
let suite_quick =
  [
    ("composition", "6aa1ebc28193172ff20663a4943f2b46");
    ("config_wall", "c3ceed10526fa960b1bf163487a72700");
    ("cores", "d98006a85a40662b4abc2020339d4d19");
    ("design", "2f6cd67270ce6923e8afce6aed7b311b");
    ("fig2", "7813d8ae8934e7417af90f2517600354");
    ("fig3", "348425aefa3ff3264797b33f9302baef");
    ("fig4", "c6833ae652fea9bd1d7495cbc95c9e97");
    ("fig5", "e11c92a039ec6e2a5c13931862781f25");
    ("fig6", "c934cb8d895f1369100e211b9d04ccd5");
    ("fig7", "026fa6f5c7a20d3e0ac7c825f471de6d");
    ("fig8", "17c155fa101f043662a2018cea5427be");
    ("hashmap", "f216be7cb7cce9a70b292b3d134fad38");
    ("logca", "10dfaf06db0190637bd3de9bc6ac3495");
    ("mechanistic", "2af7d41dd2840c27ebf6caedf78de3b3");
    ("occupancy", "9722cfc2256579119174609f217443d3");
    ("partial", "4e815dc6ff9d99881f1e3bc121c7c938");
    ("regexv", "04f7a2b259393bcfe9decc65db6d348a");
    ("simulate.config_wall", "60b19be8335d9c9696aa61e59773cab7");
    ("simulate.dgemm", "3f2086046d87c8ccd7b8abead49106fb");
    ("simulate.hashmap", "b86e91cf59de065462caefdabdce8a91");
    ("simulate.heap", "f7952515718bd46b5397c7af27450c9e");
    ("simulate.multi_tca", "9fe45ca7f000a68219697414f72d68c2");
    ("simulate.regex", "79a50872278607ad3ab24c6941ebd981");
    ("simulate.strfn", "5dae6101f49856a9240ce02dc3439ef1");
    ("simulate.synthetic", "4704717cbbe514c7e421d4598e099c5e");
    ("strfn", "cee66c68f5491aaacef9069fb9bcf163");
    ("table1", "6c61c8097d1a5e64faee6867466d4c3d");
  ]

(* model-sweep (seed-independent): op label -> result checksum. *)
let model_sweep =
  [
    ("hp/NL_NT", "24e941735699d3fb");
    ("hp/NL_NT/aux", "1a5b05f671a2e7b7");
    ("hp/L_NT", "2b9e046dbdde251d");
    ("hp/L_NT/aux", "2467f7737d2d9c1d");
    ("hp/NL_T", "193e518619202beb");
    ("hp/NL_T/aux", "180719bea8a69a64");
    ("hp/L_T", "0999dd0b6aaa7c8a");
    ("hp/L_T/aux", "035e8b422091dda2");
    ("lp/NL_NT", "2a46c1bbaa719fbb");
    ("lp/NL_NT/aux", "330043cff3ad36e1");
    ("lp/L_NT", "03fd12aa4f246ca7");
    ("lp/L_NT/aux", "3585cd2a70142ded");
    ("lp/NL_T", "00b203d2f38ea22e");
    ("lp/NL_T/aux", "0dc5c3cc76d1e77e");
    ("lp/L_T", "1214a07659ef7249");
    ("lp/L_T/aux", "0eaa9465452444ef");
  ]
