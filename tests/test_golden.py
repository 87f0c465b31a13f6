"""Golden digests of the scenario artifacts and of the Leontief theorem sweep.

Each scenario in ``scenarios/``, and each in ``INLINE`` below, is run with
``outputs = [csv, svg, summary]`` and the SHA-256 of every file it writes,
and of its summary text, must match the digest recorded here. The bundled
scenarios cover four of the eight regimes; the inline ones cover the other
four, with unequal holdings and tfp != 1, so that every branch of the
production function shows in some artifact. ``SWEEP_GOLDEN`` pins the
Leontief theorem sweep the same way: the report text of ``fmt_sweep`` and
the bytes of every ``sweep_trials`` array, at n = 1..10 and seeds 0 and 1.
``RENDER_GOLDEN`` pins the canonical text ``render_scenario`` gives each of
these scenarios. ``FIGURE_GOLDEN`` pins every file that each named figure
writes with ``fmt="both"``, and ``COBWEB_GOLDEN`` the files of
``ineqlab cobweb scenarios/olg_autarky_converge.scn --format both``.
A change that is meant to keep outputs as they are (a refactor or a
speed-up) leaves these tables alone. A change that alters a
numerical method updates the digests in the same commit and states the
tolerance its outputs keep against the old ones, for example relative 1e-8
on c(0) and 1e-6 on paths, checked with ``scripts/compare_outputs.py``.
"""

import hashlib
import re
from pathlib import Path

import pytest

from ineqlab import (
    FIGURE_NAMES,
    figure,
    fmt_sweep,
    parse_scenario,
    render_scenario,
    run_scenario,
    sweep_trials,
)
from ineqlab.cli import EXIT_OK, main

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

INLINE = {
    "olg_market_exog": """\
name = "olg-market-exog"
regime.family = olg
regime.market = market
regime.technology = exogenous
params.tfp = 1.3
params.alpha = 0.3
params.theta = 0.2
initial_distribution = [0.2, 1.5, 0.7]
horizon.max_generations = 60
horizon.stop_tol = 1e-12
""",
    "olg_autarky_ak": """\
name = "olg-autarky-ak"
regime.family = olg
regime.market = autarky
regime.technology = endogenous_ak
params.tfp = 3.0
params.alpha = 0.3
params.theta = 0.1
initial_distribution = [1.0, 4.0]
horizon.max_generations = 30
horizon.stop_tol = 1e-12
""",
    # three households, so the market path goes through the decomposition
    "ramsey_market_exog": """\
name = "ramsey-market-exog"
regime.family = ramsey
regime.market = market
regime.technology = exogenous
params.tfp = 1.2
params.alpha = 0.4
params.theta = 0.08
params.gamma = 1.5
initial_distribution = [2.0, 5.0, 9.0]
horizon.dt = 0.05
horizon.record_stride = 4
""",
    # unequal holdings, so the path comes from the Newton solve
    "ramsey_autarky_ak": """\
name = "ramsey-autarky-ak"
regime.family = ramsey
regime.market = autarky
regime.technology = endogenous_ak
params.tfp = 1.5
params.alpha = 0.3
params.theta = 0.1
params.gamma = 2.0
initial_distribution = [1.0, 2.5]
horizon.dt = 0.02
""",
}

GOLDEN = {
    "olg_autarky_converge": {
        "olg-autarky-converge.svg": "4e429a3f1c525ec84d69712441c29ae6d7e8907ad10ef16a320f4ec77cc1ef4b",
        "olg-autarky-converge_metrics.csv": "664f3bf66add42330e4a220d737763c251d9eeb3c6c0f855c77272f802ec3f60",
        "olg-autarky-converge_trajectory.csv": "ecf6aeba09409b907a59af84eed81c828365c9e6380999fbea6796a040cfc31d",
        "summary": "4aa8eab52cb0b7d365bed30f0c4cccb170d97bf77075e3453ba465eb60b32870",
    },
    "olg_market_growth": {
        "olg-market-growth.svg": "5590cc263c5565ceec66198426b6d2691764ce9e8c2e27ca2b98aa71ce0743be",
        "olg-market-growth_metrics.csv": "e29b828badb998ef42c936132b4f90bb9c7a57dfa1709ee00e57667fe0f939a1",
        "olg-market-growth_trajectory.csv": "362b34c665f9480315c556cc0dab89baa1f52938d795d2cb5863a9ad23d0df8f",
        "summary": "84b8b02800973b612066356a85bfb139f677b0e60854dd73c789590e7b88f98a",
    },
    "ramsey_autarky_saddle": {
        "ramsey-autarky-saddle.svg": "5ad49dbe738db2eb4d975b3859b9adb168e30f41e51600e4da01a47d4053060c",
        "ramsey-autarky-saddle_metrics.csv": "2ad8252070eb92a9749c058e7c57fdad4d0dc377facd09431550dcc18e3171d6",
        "ramsey-autarky-saddle_trajectory.csv": "93241d497d00fcc6f175d767de95fddd25da85217dfec08bbb4c44cc1678186b",
        "summary": "206864252511a394663d257a1aebce8826bfe63e93c8c12d66d43ae98b76338f",
    },
    "ramsey_market_growth": {
        "ramsey-market-growth.svg": "c1aabdf0e145a1bf8285bd2dcf1ef847273bc24e6e7e86b37440ef4be40bb025",
        "ramsey-market-growth_metrics.csv": "23c7df92e1a203675a326b49d7ccb7d8116e79adc3d23a081fbe6b3b3aca28de",
        "ramsey-market-growth_trajectory.csv": "4564e241a72b4a50b31db617297083a3ab467593e620b0f91857c5756542437b",
        "summary": "925f657fb51b6afb1a07d37386a9abc262b010dc933a796e07ad4b0d629438b5",
    },
}

INLINE_GOLDEN = {
    "olg_market_exog": {
        "olg-market-exog.svg": "e2925ab148621a0d63b618399989a1125359d60990c4a325d6d115a7e26a33da",
        "olg-market-exog_metrics.csv": "75e078ea0e77dc9d764a06112f78a62fbdf32061997ef9d61c00cdf3cf54fac5",
        "olg-market-exog_trajectory.csv": "53287180033c6b6a83b586e9d2205af238d9fc3a52961ebe1bd898fa4dbca58a",
        "summary": "75d634c0e434f1f73768a46b075803899bd4ac75984a35ab49fe87b13d4be818",
    },
    "olg_autarky_ak": {
        "olg-autarky-ak.svg": "bb68586973906e5346e8615815d18965af26783349a1cad770ce0090006fcbf3",
        "olg-autarky-ak_metrics.csv": "d95230f94043e435de20178e96c55cdaba5e34afdb7d21907532651400d84a4b",
        "olg-autarky-ak_trajectory.csv": "6e454d962a99f641ff9b44ae4b3843f791efc6db3c82ce4a779dd3a6727ec48e",
        "summary": "fc84180e0debaabe9a4f7b3c1361dc064b005d4a1b867c6f28fb180119d50d96",
    },
    "ramsey_market_exog": {
        "ramsey-market-exog.svg": "392815b60660a295e8b289782ea931eac172931e10f03aa92475a036afd54883",
        "ramsey-market-exog_metrics.csv": "7b188dfc247166ac5d7c808504789601cb573e3b21e1c2664861dc841261a1d7",
        "ramsey-market-exog_trajectory.csv": "0e34460764979c9640e435f35d19d70d660f16f69e8c59687f81d495913a8cd1",
        "summary": "fb70e8ae565ad960742dbb474eb1d29c5f9e5d21dd100320de81d0127bb75051",
    },
    "ramsey_autarky_ak": {
        "ramsey-autarky-ak.svg": "1629c9ecc4b1a55bcd1902c62e278282c33bf82a3218b3d7c65a871744c812fe",
        "ramsey-autarky-ak_metrics.csv": "95233ad9bab1f1dda3fd94515bff6f315fd9bafdeaed88329720e07cd39f8728",
        "ramsey-autarky-ak_trajectory.csv": "93f5a09eac6e8acb7594bdc97883a45a4a39cbac9697a331a067f8bac4c7bb76",
        "summary": "e22fa9831cba41c68f948a2f46b46fe873379bc88073cc064aa791dfc16ffc79",
    },
}

#: Scenario -> digest of ``render_scenario(parse_scenario(text))``.
RENDER_GOLDEN = {
    "olg_autarky_converge": "1de03ff8e0989280131b25befd2a2829b2dac123f0464644520de8c578b2002f",
    "olg_market_growth": "c6d10f10c17e82cfb496ba728aa709038e97e0931ea68be661d0afa02a73fbee",
    "ramsey_autarky_saddle": "2a220470ab40722be2faf198dc82d787c198c69d3fc920b3dc3e17e33e11fef1",
    "ramsey_market_growth": "d5dcb248e70bdfe3ba9947d52954332e9c61b8f8cb66bf117605d3416663d191",
    "olg_autarky_ak": "322ab25e62e77334d8ad9fe5cfbe015d119a2bdb6cfece8fb914728d4d1d9a8c",
    "olg_market_exog": "33893f1302a3163edd921783095f566a664e0ea1e8e22a9fa405c47e344d20af",
    "ramsey_autarky_ak": "4e4c5bead138687cb37e975c1da3bec6bd96d8f0329e35ac2e7a8f7e0af3bbd0",
    "ramsey_market_exog": "11cf042c03c557d283e08e54f0dace88b99a1061822f6e221e4cb05661ef6ec8",
}

#: Figure name -> {file it writes: digest}.
FIGURE_GOLDEN = {
    "fig1": {
        "fig1.csv": "d3358ddb2478064372fd0b017cc0f9672ce7a8695588550871ea19d60ba1872e",
        "fig1.svg": "73940b9b434128456b45cfa460eba5bb9b5247d8d02c68726a6108f5cfc10080",
    },
    "fig2": {
        "fig2.csv": "9e5fff14cfa81b14d929848202aab371cd4546d1b1f4cb203af761b822c4fef2",
        "fig2.svg": "4745f6bd111e6f206a33f676b4b16258ee01f376441dc024a6fb09a17c418548",
    },
    "figA1": {
        "figA1.csv": "12ac5c20cc01fc1a2a58aa82bf7487333d6e4a9bb523980aa962ff4228872a1a",
    },
    "figA2": {
        "figA2.csv": "332887db6a6d6203f08dca4c081d2a04da9d551d4e134b9ce984e24497ac15b1",
        "figA2.svg": "8ac3953d5ff091edd18b9f53f38d1cb64a909a10e16f8e65c3c85480ebe90877",
    },
    "figA3": {
        "figA3.csv": "45d7c6aa02f9798827780247762828cbc9db0b1040f878d8889acca9bd5b84e5",
        "figA3.svg": "3b349e8d10afedc41db4daa3e68de308c73824e3abc4225ffa5c66a3ce5e2775",
    },
    "figA4": {
        "figA4.csv": "44e93c2bc22db681a6ec324b6b5a1013271d8ca8bd678187b35024e99372a13c",
    },
}

COBWEB_GOLDEN = {
    "olg-autarky-converge_cobweb.csv": "bf4a054fcf06ae97b7d6b3fcd721c1a326335add2ae7decf6c4bd025c40568a5",
    "olg-autarky-converge_cobweb.svg": "da64fdffd090456511262b7bc04098c79575144fd8eec134c488554f4b4023ae",
}

#: (n, seed) -> digests of ``fmt_sweep(400, n, seed).text()`` and of the
#: surplus_sign, profit_sign and own_values bytes of each block of
#: ``sweep_trials(400, n, seed)``, in that order.
SWEEP_GOLDEN = {
    (1, 0): ("d3a09604a62223c38007a9e4ec7e1758a74700b8deae099cc077d3da5da748b8",
             "93a4f254e2aea15b93709cb613d6255bef4f311adb9a6a02598dcdbcb30e5d3a"),
    (2, 0): ("c15be1b563e56a6eb50cc5ea1832c3e9c7699fff8e2b1bd04ca02c563be320e1",
             "443072b5e5e14f922b47f8861bcc0f9e7fdaebb546e3ab197779505755d4c5f0"),
    (3, 0): ("075e32f315c9eb2fee24fd7ce0c380802571bd515a2b24f3a748300ad7b5f5e0",
             "7bcb562cd5b396edc228b54da73ddd3172b6de97680f430a6496112209b10e74"),
    (4, 0): ("18c93815f0b241bfb16a5dbad6e6a61787cc4431c7ba812c9d10ace99844e625",
             "6491afcbad3770b53047c8dd84582b19a054f721bbb74fe713d794284cc6fb4c"),
    (5, 0): ("31f0938e3744c9d91842ecd72efc62a045b4a29ab2c565a2feba2a7c27823dba",
             "9e842b0182d1d2c9e441c2e3562fc83803d529c8bca0b8693643111c5179a13b"),
    (6, 0): ("17fe558d75988604fe926b2917a4258bbbb3408f6df977e75e793dcf64e672e3",
             "21d917ef00c057b7aac24cf44ef118482eb0d23db88eb897bbaa2b969af14624"),
    (7, 0): ("be01f5e955e532d30fdb58d1b2ec378989a3e22076b9cb585e91c923dfb1737b",
             "3d52cb005b07a314d37abc943dcdd1fd580bcea84a300983c84b127d5f9dbba7"),
    (8, 0): ("2e29e49d185f81b45ea53e7394d8c1f73c9181728299bf700101efaacfbae1d5",
             "5f79f73203ed1102ba7636551fc5ceef8cf03c8b1117f06bf218fcf5b70094f5"),
    (9, 0): ("e9b2e3fadfa8987777f08bd3fb79911e22a3e9457af7db9eac375e1c71f2870c",
             "18714269efb50557dbcfe803d604987f66b0e1df57cd110e6ec40f711cfd3dff"),
    (10, 0): ("c392da10d63b72a6744f089ba8d9e440af54315e3a22c723719be584392b9fc0",
             "3c57364716478c459e3330ce6eaa90200ca8fb85859c06b4c70e7792e4087285"),
    (1, 1): ("c5f8f6a88ce13e14070c2bbbbd8d57be4fed31f0b56744de28be235d6987ef69",
             "92e0f5ecb070f1e3d9272b246be63ef79870804de8ba8095836e19dd7c4c58b7"),
    (2, 1): ("1ded0202ac77043cd3abf11833f09dea232dfbe6535e94665717d60ffaa48128",
             "c7a4cd0294c7a3bc55e20b6d7ddf5f7dab2069f4b146c81867183e56ea85d705"),
    (3, 1): ("338ac87ee1e787f8863ab4a384d6d7e00abda9f83bef9cae74775ed15cc2e5bc",
             "fb6a51d649ed086794f011418b41fd32f52acfd6cb2b3d4bc272d3cc8fcb2ecd"),
    (4, 1): ("f2708fa3c2c62cad411f88d75d948498f89f9b7c06567355ed9b62b8f1805c58",
             "266f80c7d2e0057e67b37080fc137b070e963cf91cd9b08dca50708fdb75c471"),
    (5, 1): ("1d4f8422ec8a0d721c4147d96b71891558b8ba1b8b2feb44064b6413da2abc97",
             "08f359efcabc33af8b4b83153da8b55e97ad873000a60150b3dd9f7df8970e3a"),
    (6, 1): ("1d72cc0bfb0bc14c49d6ff6b05ba8635c3e2f5234bbbb7f5906312c2dc25fb6d",
             "a67ba9cf4befcdd257924c7b6bebc92212b6db692e59d20f402139110f7573d6"),
    (7, 1): ("55f05b0225475053112d351769cda443f784bcf0a2de50734fd3aae4c93645d3",
             "52c029f27444a2bad98fc301878c81d7cbae4bd78a2d29848fa81d3941a01391"),
    (8, 1): ("398d86f6c9121fd9dffa03b1e85eee0e31492a3259a517152daf6f430c89ca5a",
             "9e222f203696cf9271c1cd96926903e7b5cd8e5e2f588d18592d9e2e3bbab2bb"),
    (9, 1): ("8463857660ebbdc81b19a692a3d2b5a8fafd902f2079bf05b34be62917675add",
             "86498c86ded29b07142b71a60e53896d8dd47d0b6d2048c3e88f2f559d1075be"),
    (10, 1): ("ee9cb0249ef524c85512bd54520657fb86df649e5203fffbcf35fe6a80982c91",
             "5d8b83ef3f8fc00f9fbfda23f70f7403ff4b357f552bae2aeaa5e25eec3e66d0"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(text: str, out: Path) -> dict[str, str]:
    artifacts = run_scenario(parse_scenario(text), out)
    found = {p.name: _sha256(p.read_bytes()) for p in out.iterdir()}
    found["summary"] = _sha256(artifacts.summary.encode("utf-8"))
    return found


def test_every_bundled_scenario_has_digests():
    assert sorted(p.stem for p in SCENARIO_DIR.glob("*.scn")) == sorted(GOLDEN)


def test_the_scenarios_cover_all_eight_regimes():
    texts = [(SCENARIO_DIR / f"{stem}.scn").read_text(encoding="utf-8")
             for stem in GOLDEN] + list(INLINE.values())
    regimes = {parse_scenario(text).regime for text in texts}
    assert len(regimes) == 8


@pytest.mark.parametrize("stem", sorted(GOLDEN))
def test_artifacts_match_golden_digests(stem, tmp_path):
    text = (SCENARIO_DIR / f"{stem}.scn").read_text(encoding="utf-8")
    text, count = re.subn(r"^outputs = .*$", "outputs = [csv, svg, summary]",
                          text, flags=re.M)
    assert count == 1
    assert _digests(text, tmp_path) == GOLDEN[stem]


@pytest.mark.parametrize("stem", sorted(INLINE))
def test_inline_artifacts_match_golden_digests(stem, tmp_path):
    text = INLINE[stem] + "outputs = [csv, svg, summary]\n"
    assert _digests(text, tmp_path) == INLINE_GOLDEN[stem]


@pytest.mark.parametrize("stem", sorted(RENDER_GOLDEN))
def test_rendered_text_matches_golden_digest(stem):
    path = SCENARIO_DIR / f"{stem}.scn"
    text = path.read_text(encoding="utf-8") if path.exists() else INLINE[stem]
    rendered = render_scenario(parse_scenario(text))
    assert _sha256(rendered.encode("utf-8")) == RENDER_GOLDEN[stem]


@pytest.mark.parametrize("n, seed", sorted(SWEEP_GOLDEN))
def test_sweep_matches_golden_digests(n, seed):
    trials = hashlib.sha256()
    for block in sweep_trials(400, n, seed):
        for array in block:
            trials.update(array.tobytes())
    text = _sha256(fmt_sweep(400, n, seed).text().encode("utf-8"))
    assert (text, trials.hexdigest()) == SWEEP_GOLDEN[n, seed]


def test_every_figure_has_digests():
    assert sorted(FIGURE_GOLDEN) == sorted(FIGURE_NAMES)


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_figure_files_match_golden_digests(name, tmp_path):
    paths = figure(name, tmp_path, fmt="both")
    assert sorted(paths) == sorted(tmp_path.iterdir())
    assert {p.name: _sha256(p.read_bytes()) for p in paths} == FIGURE_GOLDEN[name]


def test_cobweb_files_match_golden_digests(tmp_path, capsys):
    path = SCENARIO_DIR / "olg_autarky_converge.scn"
    assert main(["cobweb", str(path), "--format", "both",
                 "--out", str(tmp_path)]) == EXIT_OK
    found = {p.name: _sha256(p.read_bytes()) for p in tmp_path.iterdir()}
    assert found == COBWEB_GOLDEN
    assert capsys.readouterr().out == "".join(
        f"wrote {tmp_path / name}\n" for name in sorted(COBWEB_GOLDEN)
    ) + "steady state b* = 0.25\n"
