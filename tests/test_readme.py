"""The README's library example runs as written."""

import math
import re
from pathlib import Path

import numpy as np

from spoofbench import AudioClip, Logits, TrialScore, save_wav
from spoofbench.metrics import write_scores_csv

from conftest import SR, silence, tone

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_wav(AudioClip(np.concatenate([silence(0.5), tone(1000.0, 2.0), silence(0.5)]), SR), "call.wav")
    write_scores_csv([TrialScore(f"{ds}{label[0]}{i}", label, s, ds, cp) for ds in ("dA", "dB")
                      for label, scores in (("bonafide", (0.1, 0.6)), ("spoof", (0.4, 0.9)))
                      for i, s in enumerate(scores) for cp in (None, 2.0, 6.0)], "scores.csv")
    names = {}
    exec(compile(_library_example(), str(README), "exec"), names)
    assert math.isfinite(names["s"])
    assert len(names["logits"]) == 3 and all(isinstance(l, Logits) for l in names["logits"])
    assert set(names["reports"]) == {"dA", "dB"}
    assert set(names["by_cp"]) == {2.0, 6.0}
