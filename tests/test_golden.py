"""Golden outputs: every input and output byte of a fixed set of commands.

Small seeded scenes from ``synth`` go through ``assess`` (both extraction
methods, both weight schemes, both assumptions, with permutations),
``moran``, ``terrain`` and ``classify``, and the sha256 of every file they
read or write is compared with the table below. A change that moves any
byte shows up as an edit to that table, to be declared in CHANGES.md.

Everything runs in a temporary directory that is the working directory,
so the paths the reports echo are the same relative names on every run.
"""

import hashlib
from pathlib import Path

from demqa.cli import main

SYNTH = [
    ["--kind", "smoothed_noise", "--nrows", "40", "--ncols", "40", "--cellsize", "10",
     "--sd", "5", "--radius", "2", "--seed", "7", "--out", "dem.asc",
     "--gcps-out", "gcps.csv", "--n-points", "120", "--error-sd", "0.5"],
    ["--kind", "checkerboard", "--nrows", "40", "--ncols", "40", "--cellsize", "10",
     "--amplitude", "3", "--out", "classes.asc"],
    *(["--kind", "smoothed_noise", "--nrows", "30", "--ncols", "30", "--cellsize", "10",
       "--sd", "4", "--radius", "1", "--seed", str(k), "--out", f"band{k}.asc"]
      for k in (1, 2, 3)),
]
LEGEND = "class_code,label\n3,forest\n-3,grass\n4,scrub\n"
TRAINING = "x,y,class_code\n15,15,1\n45,35,1\n75,65,1\n205,215,2\n245,255,2\n265,195,2\n"
CONFIG = "[moran]\nscheme = fixed_band\nthreshold = 60\n\n[screen]\ntukey_field = h_dem\n"

ASSESS = {
    "nearest_id_rand": ["--method", "nearest", "--scheme", "inverse_distance",
                        "--assumption", "randomization", "--seed", "1"],
    "bilinear_band_norm": ["--method", "bilinear", "--scheme", "fixed_band",
                          "--assumption", "normality", "--row-standardize", "--seed", "2"],
    "bilinear_id_norm": ["--method", "bilinear", "--scheme", "inverse_distance",
                         "--assumption", "normality", "--threshold", "45",
                         "--remap=-3:4", "--seed", "3"],
    "nearest_config": ["--config", "assess.ini", "--method", "nearest",
                       "--assumption", "randomization", "--exclude-classes=-3", "--seed", "4"],
}
OTHERS = [
    ["moran", "--samples", "nearest_id_rand/samples.csv", "--scheme", "fixed_band",
     "--n-perm", "99", "--seed", "5", "--out", "moran.json"],
    ["terrain", "dem.asc", "--out-prefix", "drv"],
    ["classify", "--image", "band1.asc", "band2.asc", "band3.asc", "--training", "training.csv",
     "--legend", "legend.csv", "--out", "classes_out.asc"],
]

GOLDEN_INPUTS = {
    "assess.ini":
        "a6ac9df9e4fb61c4410bd1aa4c6d3217aefa8f21dd5b9bd708da45d1db784178",
    "band1.asc":
        "7639344a6cd0cb36524bafa6b37c78d0fb366a10c8c255daa021a5b73b96953a",
    "band2.asc":
        "30bc938bd030dc283b545684a9cafca841a0ea308875190be565ee6cfde781be",
    "band3.asc":
        "04fdbcf4cbfab50a1553d42d0d45affe1d1f73cb8037e5a9ada023aeed081e61",
    "classes.asc":
        "33ee980f9ea152ad963f56d06cbfa7033592f831e6db00e8f48d22e72a1fbe1d",
    "dem.asc":
        "1793cb597e72fcc1d1a414d0a779e971939cc55d819615854d54c46189410926",
    "gcps.csv":
        "ebbb95da08296add1907a0616f18c6226be734477e33992364f6fb8039283f77",
    "legend.csv":
        "eeebc50ddf8f7d69f04956e2d304babfe72d54ef0bc6f59cc1fbd35fbecc4f6a",
    "training.csv":
        "d5832175b63f384014e7a8a55ee5b46a2776af160305877f7ca44583e14b843d",
}

GOLDEN_OUTPUTS = {
    "bilinear_band_norm/histogram.csv":
        "686f7fcec62673ac37d7e7c8b6a5379df431033cf204d69396f126d735e1662d",
    "bilinear_band_norm/report.json":
        "f0e5d3598e2bea60ece3487de0bb59faa1e1d4bf225ceec39290b7c8e9d661c0",
    "bilinear_band_norm/samples.csv":
        "91a8261cdd4ef5990f8fd8067c870b36493543cc492122e8508e398792268923",
    "bilinear_band_norm/scatter_dh_vs_aspect.csv":
        "380253d28ad2e55288eeed895b7de28b4410fe7132005ba9c85a0a9bd9b75256",
    "bilinear_band_norm/scatter_dh_vs_h.csv":
        "1aa64af193f80ed11611c936abc46e73ef252e141ee7bd611972980e35ec297b",
    "bilinear_band_norm/scatter_dh_vs_slope.csv":
        "a6f2b4031cf5bc2b30006604e104ddfd71ff9ba81c5661995302c53a7ce54bdd",
    "bilinear_band_norm/stats_by_class.csv":
        "dd6094295cbf1b169394df847c7883949c78a497c47f291969b11dd43cf93ad1",
    "bilinear_id_norm/histogram.csv":
        "03b4123a3ad8e5a0586db3150ba0b32cbf0d420997b9fd88881f393fcef83d3f",
    "bilinear_id_norm/report.json":
        "46d2a026846cc8048114377ab373717f551c6b72fee80efa26db9ae693183e23",
    "bilinear_id_norm/samples.csv":
        "4b71c1867d4a9232cdf769c24d74dce909efe3006c49468e08b0ef939d5cb8ac",
    "bilinear_id_norm/scatter_dh_vs_aspect.csv":
        "380253d28ad2e55288eeed895b7de28b4410fe7132005ba9c85a0a9bd9b75256",
    "bilinear_id_norm/scatter_dh_vs_h.csv":
        "1aa64af193f80ed11611c936abc46e73ef252e141ee7bd611972980e35ec297b",
    "bilinear_id_norm/scatter_dh_vs_slope.csv":
        "a6f2b4031cf5bc2b30006604e104ddfd71ff9ba81c5661995302c53a7ce54bdd",
    "bilinear_id_norm/stats_by_class.csv":
        "8fd1bfc1f8a633bb5ac711258a01bb408e9ff56442801ca68704ea9ec8484cb1",
    "classes_out.asc":
        "1a4f8bc91e255bdfc405a6b387ae7572f2a72dc350e51d801dafb8b5417d6780",
    "drv_aspect.asc":
        "1ab486558ec7ed75e20fe325a62a0482c493b6ec04d0d9686dba4e4db6a3f6b0",
    "drv_slope.asc":
        "8af31cc6b56fb1fc59031d9e3e2b84cef1b150d3fe62d8a05c69696101d5459d",
    "moran.json":
        "cf08ff64e196cd3e13979a49c46b4a48717db4259cae1758bc0740fdca39606e",
    "nearest_config/histogram.csv":
        "98b8285dd36df1463c6c4c148b611c4ea7fa581a5373c62d11e2cd5f187eea12",
    "nearest_config/report.json":
        "d43f41c29cce9c7bcff2caf2a91687f7ad839f9e794f5fe17b95f0b7fe30f11f",
    "nearest_config/samples.csv":
        "df9936df550926221729bfcd59d1adfd3daaf09c7a3d2d8433d4042d6911ba4c",
    "nearest_config/scatter_dh_vs_aspect.csv":
        "c8b456bd809abee127a89eb6ab33f443ce6cfccc0c47890ce3a2dfd49f334008",
    "nearest_config/scatter_dh_vs_h.csv":
        "a4235e892bd82b0b7ac414ee867ff0d9109b3503b8ba5c2acd41f2561b6761e5",
    "nearest_config/scatter_dh_vs_slope.csv":
        "1db1029cb656609f5ce8118608050924a45a97a9f08daef64e847c6575b5211d",
    "nearest_config/stats_by_class.csv":
        "c5c3e3c872ad30818bc3a183e99c0078fe5bce7053761c71e2ede0517f852e42",
    "nearest_id_rand/histogram.csv":
        "7adb376b64fadac77e0ff710e3fd2cc486bfe948d33a964f5ccb0f93d21c7797",
    "nearest_id_rand/report.json":
        "b6446df0dfff2039c2c53fe2604cf324bb0d19fb32b9de264062f088605b7d61",
    "nearest_id_rand/samples.csv":
        "ce155ba587999ffea2f755d85a9998379e382b636f3ecf15f9816141b7c6338d",
    "nearest_id_rand/scatter_dh_vs_aspect.csv":
        "c0c70190a7656c9e5cfe627c900e41b58baa416de34f1a4f4c978ee3342008a2",
    "nearest_id_rand/scatter_dh_vs_h.csv":
        "0c0296777e99e2cb85dd510077c2e5dbf6072ec7b1cd063c582bd082d476f54e",
    "nearest_id_rand/scatter_dh_vs_slope.csv":
        "a04ee32ad6bdb87680d9a36bf9021e2c8d6093fdd7f73b899ac0231ca2bdad43",
    "nearest_id_rand/stats_by_class.csv":
        "d0e7d289885cfb3cd238b9c2dd84c29f352a729e770721c5b1c362e24e6c485c",
}


def _hashes(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def _run_all(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """The sha256 of each input and of each output, the commands run in ``root``."""
    for argv in SYNTH:
        assert main(["synth", *argv]) == 0, argv
    (root / "legend.csv").write_text(LEGEND)
    (root / "training.csv").write_text(TRAINING)
    (root / "assess.ini").write_text(CONFIG)
    inputs = _hashes(root)
    for out, argv in ASSESS.items():
        assert main(["assess", "--dem", "dem.asc", "--gcps", "gcps.csv",
                     "--classmap", "classes.asc", "--legend", "legend.csv",
                     "--n-perm", "99", "--out", out, *argv]) == 0, out
    for argv in OTHERS:
        assert main(argv) == 0, argv
    outputs = {k: v for k, v in _hashes(root).items() if k not in inputs}
    return inputs, outputs


def test_every_input_and_output_byte_is_the_golden_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    inputs, outputs = _run_all(tmp_path)
    capsys.readouterr()
    differ = [
        f"{name} ({kind}: {'missing' if got.get(name) is None else 'differs'})"
        for kind, got, want in (("input, from synth", inputs, GOLDEN_INPUTS),
                                ("output", outputs, GOLDEN_OUTPUTS))
        for name in sorted(want) if got.get(name) != want[name]
    ] + [
        f"{name} (unexpected file)"
        for name in sorted({*inputs, *outputs} - {*GOLDEN_INPUTS, *GOLDEN_OUTPUTS})
    ]
    assert not differ, "files that differ from the golden bytes:\n" + "\n".join(differ)


if __name__ == "__main__":  # print the tables of the code at hand
    import contextlib
    import io
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            tables = _run_all(Path(tmp))
        for title, table in zip(("GOLDEN_INPUTS", "GOLDEN_OUTPUTS"), tables):
            print(f"{title} = {{")
            for name, digest in table.items():
                print(f'    "{name}":\n        "{digest}",')
            print("}\n")
