"""Pinned chat prompt templates and the functions that fill them.

Every template is stored byte-exact, typos and double spaces included. A
reply is keyed by the sha256 of the whole prompt sent, so an edited
template or scope text shows up as a cache miss rather than as quiet drift.
"""

from __future__ import annotations

from .evaluation import NARROW_BY_BROAD
from .numerics import UsageError

REPORT_CLEAN_PROMPT = "This is the content from the pathology report. Please remove some redundant irrelevant information from the original report, such as technical details of pathology department procedures, Symbols unrelated to the pathological report, specimen handling and processing information, redundant administrative or legal statements, and some repeated information. Show me the cleaned report content."

CAPTION_PROMPT = "Based on the above pathological report content, generate a detailed paragraph that summarizes the essential pathological findings. The paragraph should include key information such as the diagnosis, tumor characteristics, margin status, lymph node involvement, and other relevant pathological findings. The summary should not mention the source being a report and should exclude any specific sizes or measurements. The paragraph should be written in a clear and cohesive manner, covering all important points without unnecessary details."

SYSTEM_PROMPT = "You are an AI assistant proficient in digital pathology. You will receive a pathology report for whole slide images."

GENERAL_PROMPT = "Based on the above pathological report content, your task is to use the provided information, create 2 multi-choice questions amd 2 short-answer questions for each narrow category. The design question should be able to be answered based on the content of the image. Design medical questions very carefully and only ask questions when you are sure of the answer.  Answers should be specific and avoid ambiguity. When generating questions, it is necessary to indicate their broad category and narrow category.  For multi-choice questions, you should (1) “question type” is “multi-choice questions”.  (2) Provide the options and answer and reasoning. Provide four answer choices (A, B, C, and D), ensuring that one choice is correct and the other three are plausible but incorrect. (3) Aim to include one answer that is incorrect but very similar to the correct one to increase the difficulty level.  For short-answer questions: (1) “question type” is “short-answer questions”. (2) Generating questions with different content from multiple-choice questions. For all questions: (1) Do not mention that the information source is report in “question”, “anwser”. (2) Return JSON format in {“question type”: xxx, “question”: xxx, “options”: [], “answer”: xxx, “broad category”: xxx, “narrow category”: xxx} for each question. The “options” section is empty for short-answer questions."

OBJECTIVE_TEMPLATE = "Definition of Broad Category and its corresponding Narrow Categories. “ The required broad category is {broad}, which {broad_scope}. For the narrow category:  {narrow_lines}”"

LABEL_QUESTION_TEMPLATE = "What is the {task} shown in this whole slide image?"

# What each broad category exercises, phrased to complete
# "The required broad category is X, which ...".
BROAD_SCOPES: dict[str, str] = {
    "Microscopy": "involves assessing the ability to generate microscopy descriptions of pathology images, focusing on clinically relevant features",
    "Diagnosis": "tests the ability of models to suggest a reasonable diagnosis based on histological images and relevant clinical context",
    "Clinical": "tests the ability of models to retrieve and apply clinically relevant background knowledge about diseases",
}

NARROW_SCOPES: dict[str, str] = {
    "Tissue Architecture and Arrangement": "Questions should evaluate the understanding of overall tissue structure and spatial organization within a histological section.",
    "Tumor Characteristics": "Questions should assess the ability to identify and describe features specific to tumors, such as tumor differentiation, invasion, and specific patterns associated with different types of tumors.",
    "Cytomorphological Characteristics": "Questions should focus on the detailed description of individual cell morphology, including nuclear and cytoplasmic features.",
    "Histopathological Changes": "Questions should evaluate the recognition and description of pathological changes in tissue, such as necrosis, inflammation, fibrosis, and other alterations that indicate disease processes.",
    "Disease Detection": "Questions should evaluate the model's ability to identify the presence or absence of a disease based on histological features and clinical information.",
    "Disease Classification": "Questions should focus on distinguishing between different types or subtypes of diseases, assessing the model’s capability to classify conditions accurately based on morphological and histopathological criteria.",
    "Staging": "Questions should evaluate the ability to assign a stage to a disease, particularly in oncology, by assessing the extent of disease spread and involvement of surrounding tissues or organs.",
    "Grading": "Questions should assess the model’s ability to determine the grade of a disease, particularly tumors, based on the degree of differentiation and cellular atypia observed in histological images.",
    "Differential Diagnosis": "Questions should test the model’s ability to provide a differential diagnosis, distinguishing between multiple potential conditions that may present with similar histological and clinical features.",
    "Treatment Guidance": "Questions should assess the model's ability to recommend appropriate treatment options based on the disease in question, considering factors such as disease stage, patient demographics, and any specific clinical guidelines.",
    "Biomarker Analysis": "Questions should evaluate the ability to identify and interpret biomarkers relevant to the diagnosis, prognosis, or treatment of diseases, emphasizing their role in personalized medicine and targeted therapy.",
    "Risk Factors": "Questions should test the model's knowledge of risk factors associated with specific diseases, including genetic, environmental, and lifestyle factors that may influence disease development or progression.",
    "Prognostic Assessment": "Questions should focus on evaluating the model's ability to predict the likely course and outcome of a disease, including survival rates, potential complications, and long-term outcomes based on clinical and pathological data.",
}


def objective_prompt(broad: str) -> str:
    """Fill the objective template for one broad category, listing each of
    its narrow categories in taxonomy order."""
    if broad not in BROAD_SCOPES:
        raise UsageError(f"unknown broad category {broad!r}")
    lines = " ".join(f"{name}: {NARROW_SCOPES[name]}" for name in NARROW_BY_BROAD[broad])
    return OBJECTIVE_TEMPLATE.format(
        broad=broad, broad_scope=BROAD_SCOPES[broad], narrow_lines=lines
    )


def report_clean_prompt(report: str) -> str:
    """Cleaning instruction above, raw report below."""
    return f"{REPORT_CLEAN_PROMPT}\n\n{report}"


def caption_prompt(cleaned: str) -> str:
    """Report above, instruction below; the template says 'above' itself."""
    return f"{cleaned}\n\n{CAPTION_PROMPT}"


def qa_prompt(cleaned: str, broad: str) -> str:
    """Cleaned report, then system, objective, and general blocks in order."""
    return "\n\n".join([cleaned, SYSTEM_PROMPT, objective_prompt(broad), GENERAL_PROMPT])


def label_question(task: str) -> str:
    return LABEL_QUESTION_TEMPLATE.format(task=task)
