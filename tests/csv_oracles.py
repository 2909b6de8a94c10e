"""Cell-by-cell versions of the waveform and spectrogram CSV writers, kept as test oracles.

These are the original definitions from report.emit_plot_data: one row list
per cell, one ``str`` per value. The library's writers must reproduce their
files byte for byte.
"""


def _csv_rows(rows, header, out_path):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def waveform_csv(report, out_path):
    rows = []
    for side in ("original", "transformed"):
        wf = report[side]["audio"]["waveform"]
        rows += [[side, t, v] for t, v in zip(wf["times"], wf["rms"])]
    _csv_rows(rows, ["track", "time_sec", "rms"], out_path)


def spectrogram_csv(report, out_path):
    rows = []
    for side in ("original", "transformed"):
        sg = report[side]["audio"]["spectrogram"]
        for i, t in enumerate(sg["times"]):
            for j, f in enumerate(sg["frequencies"]):
                rows.append([side, t, f, sg["db"][i][j]])
    _csv_rows(rows, ["track", "time_sec", "freq_hz", "db"], out_path)


ORACLES = {"waveform": waveform_csv, "spectrogram": spectrogram_csv}
